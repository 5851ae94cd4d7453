package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"verfploeter/internal/dataset"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/loadmodel"
	"verfploeter/internal/verfploeter"
)

// checks tallies a phase's correctness checks; every operation and
// every verification counts once in attempted, and in failed when it
// went wrong. why keeps the first few failures for the report.
type checks struct {
	attempted, failed int
	why               []string
}

func (c *checks) ok(cond bool, format string, args ...any) {
	c.attempted++
	if cond {
		return
	}
	c.failed++
	if len(c.why) < 8 {
		c.why = append(c.why, fmt.Sprintf(format, args...))
	}
}

func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, w := range o.why {
		if len(c.why) < 8 {
			c.why = append(c.why, w)
		}
	}
}

// fpMix folds v into a running fingerprint (splitmix64 finalizer).
func fpMix(h, v uint64) uint64 {
	x := h ^ v*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func fpEntry(h uint64, b ipv4.Block, site int, rtt time.Duration) uint64 {
	return fpMix(fpMix(h, uint64(b)<<16|uint64(uint16(site))), uint64(rtt))
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// tracedMallocs is mallocs under a span of its own: the read stops the
// world, sits inside the traced round, and is the benchmark's doing
// rather than any layer's.
func tracedMallocs(tr *tracer, iter, parent int) uint64 {
	sp := tr.begin("bench.ReadMemStats", iter, parent)
	defer tr.end(sp)
	return mallocs()
}

type sweepOut struct {
	checks
	roundS      []float64 // measure + write + predict, per round
	roundAllocs []float64
	measureMS   []float64
	writeMS     []float64
	predictMS   []float64
	readMS      []float64
	// Per-stage allocation counts need a stop-the-world read between
	// stages, so only the traced run takes them.
	measureAllocs []float64
	writeAllocs   []float64
	predictAllocs []float64
	fileBytes     int64
	targets       int
	responseRate  float64
	fingerprints  []uint64
}

// runSweep is the cold-map path the benchmark composes itself: each
// round measures the full hitlist, streams the catchment to a real file
// in the v4 format, and estimates per-site load from it. The file is
// then read back and compared with the in-memory map, outside the
// round's timing. It performs n more rounds and adds them to out.
func runSweep(w *world, out *sweepOut, n int, opt options, tr *tracer) error {
	s := w.scn
	path := filepath.Join(opt.outDir, fmt.Sprintf("sweep-%d.vp4", os.Getpid()))
	defer os.Remove(path)

	for i := 0; i < n; i++ {
		r := len(out.roundS) // rounds are numbered across slices
		roundID := uint16(opt.seed*131 + uint64(r) + 1)
		traced := tr != nil
		var a1, a2 uint64

		a0 := mallocs()
		t0 := time.Now()
		root := tr.begin("sweep.round", r, -1)

		sp := tr.begin("verfploeter.Measure", r, root)
		catch, stats, err := s.Measure(roundID)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("sweep round %d: %w", r, err)
		}
		t1 := time.Now()
		if traced {
			a1 = tracedMallocs(tr, r, root)
		}

		sp = tr.begin("dataset.StreamWriter", r, root)
		err = writeCatchment(path, s.Name, s.SiteCodes(), roundID, s.Seed, catch, stats)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("sweep round %d: %w", r, err)
		}
		t2 := time.Now()
		if traced {
			a2 = tracedMallocs(tr, r, root)
		}

		sp = tr.begin("loadmodel.Predict", r, root)
		est := loadmodel.Predict(catch, w.log, loadmodel.ByQueries)
		tr.end(sp)
		tr.end(root)
		t3 := time.Now()
		a3 := mallocs()

		out.roundS = append(out.roundS, t3.Sub(t0).Seconds())
		out.roundAllocs = append(out.roundAllocs, float64(a3-a0))
		out.measureMS = append(out.measureMS, ms(t1.Sub(t0)))
		out.writeMS = append(out.writeMS, ms(t2.Sub(t1)))
		out.predictMS = append(out.predictMS, ms(t3.Sub(t2)))
		if traced {
			out.measureAllocs = append(out.measureAllocs, float64(a1-a0))
			out.writeAllocs = append(out.writeAllocs, float64(a2-a1))
			out.predictAllocs = append(out.predictAllocs, float64(a3-a2))
		}
		out.targets = stats.Targets
		out.responseRate = stats.ResponseRate()

		// Verification, untimed. The synthetic dataplane answers for
		// roughly half the targets at every tier (0.49 at the internet
		// tier, 0.51 at the small one).
		out.ok(out.responseRate >= 0.45 && out.responseRate <= 0.60,
			"round %d: response rate %.4f outside [0.45, 0.60]", r, out.responseRate)
		sum := 0.0
		for site := range est.BySite {
			sum += est.BySite[site]
		}
		out.ok(sum > 0, "round %d: load estimate is empty", r)

		memFP, memN := catchmentFingerprint(catch)
		sp = tr.begin("dataset.StreamReader", r, -1)
		tr0 := time.Now()
		fileFP, fileN, bytes, err := fileFingerprint(path)
		out.readMS = append(out.readMS, ms(time.Since(tr0)))
		tr.end(sp)
		out.ok(err == nil, "round %d: re-read: %v", r, err)
		out.ok(fileN == memN && fileFP == memFP,
			"round %d: file holds %d entries fp %016x, map holds %d fp %016x", r, fileN, fileFP, memN, memFP)
		out.fileBytes = bytes
		out.fingerprints = append(out.fingerprints, memFP)
	}
	return nil
}

// writeCatchment streams c to path through the constant-memory v4
// writer, the way cmd/verfploeter saves an internet-tier map.
func writeCatchment(path, scenarioName string, sites []string, roundID uint16, seed uint64,
	c *verfploeter.Catchment, stats verfploeter.Stats) error {

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := dataset.Meta{ID: "BENCH", Scenario: scenarioName, Sites: sites, RoundID: roundID, Seed: seed}
	sw, err := dataset.NewStreamWriter(f, meta, stats, c.NSite, c.Len())
	if err != nil {
		f.Close()
		return err
	}
	var werr error
	c.Range(func(b ipv4.Block, site int) bool {
		rtt, _ := c.RTTOf(b)
		werr = sw.Append(b, site, rtt)
		return werr == nil
	})
	if werr == nil {
		werr = sw.Close()
	}
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

// catchmentFingerprint folds every (block, site, rtt) of c in ascending
// block order.
func catchmentFingerprint(c *verfploeter.Catchment) (fp uint64, n int) {
	c.Range(func(b ipv4.Block, site int) bool {
		rtt, _ := c.RTTOf(b)
		fp = fpEntry(fp, b, site, rtt)
		n++
		return true
	})
	return fp, n
}

// fileFingerprint reads a v4 file back entry by entry and folds it the
// same way.
func fileFingerprint(path string) (fp uint64, n int, bytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close() // read-only
	if st, err := f.Stat(); err == nil {
		bytes = st.Size()
	}
	sr, err := dataset.NewStreamReader(f)
	if err != nil {
		return 0, 0, bytes, err
	}
	for {
		e, err := sr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fp, n, bytes, err
		}
		fp = fpEntry(fp, e.Block, e.Site, e.RTT)
		n++
	}
	if n != sr.Len() {
		return fp, n, bytes, fmt.Errorf("header declares %d entries, read %d", sr.Len(), n)
	}
	return fp, n, bytes, sr.Close()
}
