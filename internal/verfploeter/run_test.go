package verfploeter

import (
	"errors"
	"testing"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/dataplane"
	"verfploeter/internal/hitlist"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/topology"
	"verfploeter/internal/vclock"
)

type world struct {
	top   *topology.Topology
	clock *vclock.Clock
	net   *dataplane.Net
	hl    *hitlist.Hitlist
	asg   *bgp.Assignment
}

func newWorld(t *testing.T, seed uint64, imp dataplane.Impairments) *world {
	t.Helper()
	top := topology.Generate(topology.DefaultParams(topology.SizeTiny, seed))
	anns := []bgp.Announcement{
		{Site: 0, UpstreamASN: top.ASes[0].ASN, Lat: 34, Lon: -118},
		{Site: 1, UpstreamASN: top.ASes[1].ASN, Lat: 26, Lon: -80},
	}
	asg := bgp.Compute(top, anns).Assign()
	clock := vclock.New()
	net := dataplane.New(dataplane.Config{
		Top: top, Clock: clock, Seed: seed, Impair: imp,
		AnycastPrefix: ipv4.MustParsePrefix("198.18.0.0/24"),
	})
	net.SetAssignment(asg)
	net.AttachSite(0, nil, nil)
	net.AttachSite(1, nil, nil)
	return &world{top: top, clock: clock, net: net, hl: hitlist.Build(top, seed), asg: asg}
}

func (w *world) config(round uint16) Config {
	return Config{
		Hitlist: w.hl, Net: w.net, NSite: 2,
		OriginSite: 0, SourceAddr: ipv4.MustParseAddr("198.18.0.1"),
		RoundID: round, Seed: 42,
	}
}

func TestRunMapsCatchmentsCorrectly(t *testing.T) {
	w := newWorld(t, 3, dataplane.Impairments{BaseRTT: 5 * time.Millisecond})
	catch, stats, err := Run(w.config(1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != w.hl.Len() {
		t.Errorf("Sent = %d, want %d", stats.Sent, w.hl.Len())
	}
	if catch.Len() == 0 {
		t.Fatal("empty catchment")
	}
	// Response rate ~45-60% of blocks.
	frac := float64(catch.Len()) / float64(len(w.top.Blocks))
	if frac < 0.35 || frac > 0.70 {
		t.Errorf("mapped %.2f of blocks", frac)
	}
	// Every mapped block agrees with the data plane's ground truth.
	catch.Range(func(b ipv4.Block, site int) bool {
		if want := w.net.SiteOfBlock(b); want != site {
			t.Fatalf("block %v mapped to %d, ground truth %d", b, site, want)
		}
		return true
	})
	// Both sites appear.
	counts := catch.Counts()
	if counts[0] == 0 || counts[1] == 0 {
		t.Errorf("lopsided catchment %v", counts)
	}
}

func TestRunCleansImpairments(t *testing.T) {
	w := newWorld(t, 5, dataplane.DefaultImpairments())
	catch, stats, err := Run(w.config(9))
	if err != nil {
		t.Fatal(err)
	}
	cs := stats.Clean
	if cs.Duplicates == 0 {
		t.Error("expected duplicates to be cleaned")
	}
	if cs.Unsolicited == 0 {
		t.Error("expected aliased replies to be dropped as unsolicited")
	}
	if cs.Late == 0 {
		t.Error("expected late replies to be dropped")
	}
	if cs.Kept != catch.Len() {
		t.Errorf("kept %d replies but mapped %d blocks", cs.Kept, catch.Len())
	}
	if cs.Kept+cs.Duplicates+cs.Unsolicited+cs.Late+cs.WrongRound != cs.Total {
		t.Errorf("clean accounting does not add up: %+v", cs)
	}
}

func TestRunSeparatesRounds(t *testing.T) {
	// Two back-to-back rounds with different idents: second round's
	// cleaning must not admit stragglers from the first.
	imp := dataplane.DefaultImpairments()
	imp.LateFrac = 0.05 // lots of stragglers
	w := newWorld(t, 7, imp)

	_, _, err := Run(w.config(1))
	if err != nil {
		t.Fatal(err)
	}
	w.net.SetRound(1)
	_, stats2, err := Run(w.config(2))
	if err != nil {
		t.Fatal(err)
	}
	// RunUntilIdle in round 1 drains its own late replies, so round 2
	// may see none — but if any cross-round replies appear they must be
	// counted as WrongRound, never kept.
	if stats2.Clean.WrongRound > 0 {
		t.Logf("cross-round stragglers correctly rejected: %d", stats2.Clean.WrongRound)
	}
}

func TestRunPacing(t *testing.T) {
	w := newWorld(t, 11, dataplane.Impairments{})
	_, stats, err := Run(w.config(3))
	if err != nil {
		t.Fatal(err)
	}
	wantMin := time.Duration(float64(w.hl.Len()) / DefaultRate * 0.8 * float64(time.Second))
	if stats.Elapsed < wantMin {
		t.Errorf("elapsed %v for %d probes at %v/s, want >= %v", stats.Elapsed, w.hl.Len(), DefaultRate, wantMin)
	}
}

func TestRunDeterministic(t *testing.T) {
	r1 := func() (*Catchment, Stats) {
		w := newWorld(t, 13, dataplane.DefaultImpairments())
		c, s, err := Run(w.config(4))
		if err != nil {
			t.Fatal(err)
		}
		return c, s
	}
	a, sa := r1()
	b, sb := r1()
	if sa != sb {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	if a.Len() != b.Len() {
		t.Fatal("catchment sizes differ")
	}
	a.Range(func(bk ipv4.Block, site int) bool {
		if s2, ok := b.SiteOf(bk); !ok || s2 != site {
			t.Fatalf("catchments differ at %v", bk)
		}
		return true
	})
}

func TestRunConfigValidation(t *testing.T) {
	w := newWorld(t, 17, dataplane.Impairments{})
	bad := w.config(1)
	bad.Hitlist = nil
	if _, _, err := Run(bad); !errors.Is(err, ErrConfig) {
		t.Errorf("nil hitlist: %v", err)
	}
	bad = w.config(1)
	bad.NSite = 0
	if _, _, err := Run(bad); !errors.Is(err, ErrConfig) {
		t.Errorf("zero sites: %v", err)
	}
	bad = w.config(1)
	bad.OriginSite = 5
	if _, _, err := Run(bad); !errors.Is(err, ErrConfig) {
		t.Errorf("bad origin: %v", err)
	}
	// Source outside the anycast prefix: probes are rejected by the
	// data plane and surface as an error.
	bad = w.config(1)
	bad.SourceAddr = ipv4.MustParseAddr("10.0.0.1")
	if _, _, err := Run(bad); !errors.Is(err, dataplane.ErrBadSource) {
		t.Errorf("bad source: %v", err)
	}
}

// Origin independence: the catchment is a property of BGP, not of where
// the prober runs (§3.1: queries are sent from the anycast prefix; the
// reply path alone decides the site). Probing from site 1 must map every
// block identically to probing from site 0.
func TestOriginSiteDoesNotChangeCatchment(t *testing.T) {
	a := newWorld(t, 43, dataplane.DefaultImpairments())
	cfgA := a.config(3)
	cfgA.OriginSite = 0
	fromLAX, _, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}

	b := newWorld(t, 43, dataplane.DefaultImpairments())
	cfgB := b.config(3)
	cfgB.OriginSite = 1
	fromMIA, _, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}

	if fromLAX.Len() != fromMIA.Len() {
		t.Fatalf("origin changed coverage: %d vs %d", fromLAX.Len(), fromMIA.Len())
	}
	fromLAX.Range(func(blk ipv4.Block, site int) bool {
		if s2, ok := fromMIA.SiteOf(blk); !ok || s2 != site {
			t.Fatalf("origin changed catchment at %v: %d vs %d", blk, site, s2)
		}
		return true
	})
}
