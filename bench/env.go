package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment stamps a result with what it was measured on.
type environment struct {
	GitSHA     string  `json:"git_sha"`
	GitDirty   bool    `json:"git_dirty"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func stampEnvironment(opt options) environment {
	env := environment{
		GitSHA: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: opt.workers, Seed: opt.seed, Seconds: opt.seconds,
	}
	// Only ask git when the working directory is itself a repository
	// root: a benchmark checkout is a plain directory, and git would
	// otherwise go looking through its parents.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			env.GitSHA = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			env.GitDirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

func defaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	return w
}
