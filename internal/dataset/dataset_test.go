package dataset

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

func measuredDataset(t *testing.T, roundID uint16) (*scenario.Scenario, *Dataset) {
	t.Helper()
	s := scenario.BRoot(topology.SizeTiny, 1)
	catch, stats, err := s.Measure(roundID)
	if err != nil {
		t.Fatal(err)
	}
	return s, &Dataset{
		Meta: Meta{
			ID: "SBV-5-15", Scenario: s.Name, Sites: s.SiteCodes(),
			RoundID: roundID, Seed: s.Seed, CreatedUnix: 1494806400,
		},
		Catchment: catch,
		Stats:     stats,
	}
}

func TestRoundTrip(t *testing.T) {
	_, ds := measuredDataset(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.ID != ds.Meta.ID || back.Meta.Scenario != ds.Meta.Scenario ||
		back.Meta.RoundID != ds.Meta.RoundID || back.Meta.Seed != ds.Meta.Seed ||
		back.Meta.CreatedUnix != ds.Meta.CreatedUnix {
		t.Fatalf("meta fields differ: %+v vs %+v", back.Meta, ds.Meta)
	}
	if len(back.Meta.Sites) != len(ds.Meta.Sites) {
		t.Fatal("site list differs")
	}
	if back.Stats != ds.Stats {
		t.Fatalf("stats differ: %+v vs %+v", back.Stats, ds.Stats)
	}
	if back.Catchment.Len() != ds.Catchment.Len() || back.Catchment.NSite != ds.Catchment.NSite {
		t.Fatalf("catchment size differs: %d vs %d", back.Catchment.Len(), ds.Catchment.Len())
	}
	ds.Catchment.Range(func(b ipv4.Block, site int) bool {
		s2, ok := back.Catchment.SiteOf(b)
		if !ok || s2 != site {
			t.Fatalf("catchment differs at %v", b)
		}
		return true
	})
	// RTTs survive at microsecond granularity.
	kept := 0
	ds.Catchment.Range(func(b ipv4.Block, _ int) bool {
		if want, ok := ds.Catchment.RTTOf(b); ok {
			got, ok2 := back.Catchment.RTTOf(b)
			if !ok2 {
				t.Fatalf("RTT lost for %v", b)
			}
			if d := got - want.Truncate(time.Microsecond); d < -time.Microsecond || d > time.Microsecond {
				t.Fatalf("RTT drifted for %v: %v vs %v", b, got, want)
			}
			kept++
		}
		return true
	})
	if kept == 0 {
		t.Fatal("no RTTs in round trip")
	}
}

func TestFileRoundTrip(t *testing.T) {
	_, ds := measuredDataset(t, 2)
	path := filepath.Join(t.TempDir(), "sbv.vpds")
	if err := WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Catchment.Len() != ds.Catchment.Len() {
		t.Fatal("file round trip lost entries")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not gzip"))); !errors.Is(err, ErrFormat) {
		t.Errorf("garbage: %v", err)
	}
	// Valid gzip, wrong magic.
	var buf bytes.Buffer
	_, ds := measuredDataset(t, 3)
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	// Truncate the compressed stream: must fail, not panic.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated dataset should fail")
	}
	if err := Write(&bytes.Buffer{}, nil); !errors.Is(err, ErrFormat) {
		t.Errorf("nil dataset: %v", err)
	}
}

func TestDiff(t *testing.T) {
	// Small scale: the tiny topology has too few equal-cost ties for an
	// epoch change to visibly shift routing.
	s := scenario.BRoot(topology.SizeSmall, 1)
	catchA, statsA, err := s.Measure(4)
	if err != nil {
		t.Fatal(err)
	}
	dsA := &Dataset{
		Meta:      Meta{ID: "SBV-5-15", Scenario: s.Name, Sites: s.SiteCodes(), RoundID: 4},
		Catchment: catchA,
		Stats:     statsA,
	}
	// Second round with routing drift: the month-over-month comparison.
	s.ReannounceEpoch(nil, 1)
	catchB, statsB, err := s.Measure(5)
	if err != nil {
		t.Fatal(err)
	}
	s.Reannounce(nil)
	dsB := &Dataset{
		Meta:      Meta{ID: "SBV-6-15", Scenario: s.Name, Sites: s.SiteCodes(), RoundID: 5},
		Catchment: catchB,
		Stats:     statsB,
	}
	rep, err := Diff(dsA, dsB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transitions.Stable == 0 {
		t.Error("no stable blocks across epochs")
	}
	if rep.Transitions.Flipped == 0 {
		t.Error("epoch change should flip some blocks")
	}
	if len(rep.ShareDelta) != 2 {
		t.Fatalf("ShareDelta = %v", rep.ShareDelta)
	}
	if d := rep.ShareDelta[0] + rep.ShareDelta[1]; d > 1e-9 || d < -1e-9 {
		t.Errorf("share deltas should sum to ~0, got %v", d)
	}

	// Mismatched deployments refuse to diff.
	bad := &Dataset{Meta: Meta{}, Catchment: verfploeter.NewCatchment(9, nil)}
	if _, err := Diff(dsA, bad); err == nil {
		t.Error("diff across site counts should fail")
	}
}

func TestDeterministicBytes(t *testing.T) {
	_, ds := measuredDataset(t, 6)
	var a, b bytes.Buffer
	if err := Write(&a, ds); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, ds); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialization not byte-deterministic")
	}
}
