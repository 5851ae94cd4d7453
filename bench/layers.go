package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/geo"
	"verfploeter/internal/hitlist"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/obsv"
	"verfploeter/internal/packet"
	"verfploeter/internal/querylog"
	"verfploeter/internal/scenario"
	"verfploeter/internal/server"
	"verfploeter/internal/topology"
)

// This file holds the traced run's stage measurements for layers that a
// phase reaches only through another layer's public call (BRoot builds
// the topology, Measure drives the dataplane, Advance builds the
// snapshot). Each stage's public function is called on the inputs the
// phase used; the report labels such numbers computed.

type worldStages struct {
	generateMS, hitlistMS, geoMS, synthesizeMS float64
	coldMS, assignMS, coldAllocs               float64
}

// measureWorldStages re-runs what scenario.BRoot and RootLog do for one
// tier, stage by stage.
func measureWorldStages(s *scenario.Scenario, tier topology.Size, workers int, tr *tracer) worldStages {
	var st worldStages
	timed := func(name string, fn func()) float64 {
		sp := tr.begin(name, 0, -1)
		t0 := time.Now()
		fn()
		d := ms(time.Since(t0))
		tr.end(sp)
		return d
	}
	var top *topology.Topology
	st.generateMS = timed("topology.Generate", func() { top = topology.Generate(topology.DefaultParams(tier, worldSeed)) })
	st.hitlistMS = timed("hitlist.Build", func() { hitlist.Build(top, worldSeed) })
	st.geoMS = timed("geo.Build", func() { geo.Build(top, scenario.GeoMissRate, worldSeed) })
	st.synthesizeMS = timed("querylog.Synthesize", func() { querylog.Synthesize(top, querylog.RootProfile(), worldSeed) })

	// Route computation needs the deployment's sites, so it runs on the
	// scenario's own topology, bypassing the route cache.
	anns := s.AnnouncementsFor(nil, nil)
	var tbl *bgp.Table
	a0 := mallocs()
	st.coldMS = timed("bgp.ComputeEpoch", func() { tbl = bgp.ComputeEpoch(s.Top, anns, 0) })
	st.coldAllocs = float64(mallocs() - a0)
	st.assignMS = timed("bgp.Assign", func() { tbl.AssignWorkers(workers) })
	return st
}

type packetStages struct{ encodeNS, decodeNS, allocsPerPkt float64 }

func measurePacket() (packetStages, error) {
	const n = 200000
	src, dst := ipv4.MustParseAddr("198.18.0.1"), ipv4.MustParseAddr("100.1.2.3")
	a0 := mallocs()
	t0 := time.Now()
	var raw []byte
	for i := 0; i < n; i++ {
		raw = packet.MarshalEcho(src, dst, packet.ICMPEchoRequest, 7, uint16(i), nil)
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := packet.UnmarshalEcho(raw); err != nil {
			return packetStages{}, err
		}
	}
	dec := time.Since(t0)
	return packetStages{
		encodeNS:     float64(enc) / n,
		decodeNS:     float64(dec) / n,
		allocsPerPkt: float64(mallocs()-a0) / n, // one encode + one decode
	}, nil
}

type dataplaneStages struct{ sendEchoNS, repliesPerProbe float64 }

// measureDataplane sends one echo per hitlist target (at most 200k)
// straight into the data plane with a counting reply sink: the
// per-probe cost underneath the sweep, without pacing or fold.
func measureDataplane(s *scenario.Scenario) (dataplaneStages, error) {
	f := s.Fork()
	for site := range f.Sites {
		f.Net.SetTap(site, func([]byte) {})
	}
	replies := 0
	f.Net.SetReplySink(func(int, ipv4.Addr, uint16, uint16, time.Duration) { replies++ })
	n := f.Hitlist.Len()
	if n > 200000 {
		n = 200000
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := f.Net.SendEcho(0, f.MeasureAddr, f.Hitlist.Entries[i].Addr, 77, uint16(i)); err != nil {
			return dataplaneStages{}, err
		}
	}
	d := time.Since(t0)
	return dataplaneStages{sendEchoNS: float64(d) / float64(n), repliesPerProbe: float64(replies) / float64(n)}, nil
}

type serverStages struct {
	lookupNS, lookupAllocs, handlerUS float64
	buildMS, buildAllocs              float64
}

// measureServer times the two inner pieces of the read path — the bare
// Tenant.Lookup, and the handler with its JSON but no TCP — and the
// snapshot build that Tenant.Advance performs after its monitor step.
func measureServer(sr *serveRig, reqs []request, tr *tracer) serverStages {
	var st serverStages
	var lookups []*request
	for i := range reqs {
		if reqs[i].kind == kindLookup {
			lookups = append(lookups, &reqs[i])
		}
	}

	const n = 1 << 20
	a0 := mallocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sr.tenant.Lookup(lookups[i%len(lookups)].addr)
	}
	st.lookupNS = float64(time.Since(t0)) / n
	st.lookupAllocs = float64(mallocs()-a0) / n

	var lat []float64
	for i := 0; i < 20000; i++ {
		rq := lookups[i%len(lookups)]
		req := httptest.NewRequest("GET", strings.TrimPrefix(rq.url, sr.base), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		sr.handler.ServeHTTP(rec, req)
		lat = append(lat, us(time.Since(t0)))
	}
	st.handlerUS = median(lat)

	var builds, allocs []float64
	for i := 0; i < 5; i++ {
		a0 := mallocs()
		sp := tr.begin("server.BuildSnapshot", i, -1)
		t0 := time.Now()
		server.BuildSnapshot(tenantName, sr.newest(), false, sr.w.scn, sr.lastMap, sr.w.log, sr.capacity)
		builds = append(builds, ms(time.Since(t0)))
		tr.end(sp)
		allocs = append(allocs, float64(mallocs()-a0))
	}
	st.buildMS, st.buildAllocs = median(builds), median(allocs)
	return st
}

// obsvOverhead is the cost of running a sweep with the instrumentation
// registry attached, as a distribution of paired differences.
type obsvOverhead struct {
	medianPct, q1Pct, q3Pct float64
	pairs                   int
	// unresolved: the quartile range spans zero, so the sign of the
	// overhead is not established by this run.
	unresolved bool
}

// measureObsvOverhead runs pairs of small-tier sweeps, one with Obs nil
// and one with a live registry (and the bgp hooks), alternating which
// goes first so drift and cache warmth cancel.
func measureObsvOverhead(workers, pairs int) (obsvOverhead, error) {
	base := scenario.BRoot(topology.SizeSmall, worldSeed)
	base.Workers = workers
	off, on := base.Fork(), base.Fork()
	reg := obsv.New()
	on.Obs = reg
	one := func(s *scenario.Scenario, withObs bool, round uint16) (float64, error) {
		if withObs {
			bgp.SetObs(reg)
			defer bgp.SetObs(nil)
		}
		t0 := time.Now()
		_, _, err := s.Measure(round)
		return time.Since(t0).Seconds(), err
	}
	var diffs []float64
	for i := 0; i < pairs; i++ {
		var tOff, tOn float64
		var err1, err2 error
		round := uint16(i + 1)
		if i%2 == 0 {
			tOff, err1 = one(off, false, round)
			tOn, err2 = one(on, true, round)
		} else {
			tOn, err2 = one(on, true, round)
			tOff, err1 = one(off, false, round)
		}
		if err1 != nil || err2 != nil {
			return obsvOverhead{}, fmt.Errorf("obsv pair %d: %v / %v", i, err1, err2)
		}
		diffs = append(diffs, 100*(tOn-tOff)/tOff)
	}
	q1, q2, q3 := quartiles(diffs)
	return obsvOverhead{medianPct: q2, q1Pct: q1, q3Pct: q3, pairs: pairs, unresolved: q1 <= 0 && q3 >= 0}, nil
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
