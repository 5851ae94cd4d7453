package dataset

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/verfploeter"
)

// TestSubMicrosecondRTTSurvives is the regression test for the historic
// v1/v2 writer bug: RTTs under 1µs truncated to 0 microseconds, and 0
// doubles as the no-RTT marker, so the RTT silently vanished on read.
// The v4 nanosecond encoding must keep them exactly.
func TestSubMicrosecondRTTSurvives(t *testing.T) {
	c := catchmentOver(2, ipv4.Block(0x01020300), ipv4.Block(0x01020400), ipv4.Block(0x01020500))
	c.SetRTT(ipv4.Block(0x01020300), 0, 500*time.Nanosecond)
	c.SetRTT(ipv4.Block(0x01020400), 1, time.Nanosecond)
	c.SetRTT(ipv4.Block(0x01020500), 1, 42*time.Millisecond+17*time.Nanosecond)
	ds := &Dataset{
		Meta:      Meta{ID: "SUB-US", Scenario: "b-root", Sites: []string{"lax", "mia"}},
		Catchment: c,
	}
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Catchment.RTTCount() != 3 {
		t.Fatalf("RTT count = %d, want 3 (sub-µs RTTs dropped)", back.Catchment.RTTCount())
	}
	for _, want := range []struct {
		b   ipv4.Block
		rtt time.Duration
	}{
		{ipv4.Block(0x01020300), 500 * time.Nanosecond},
		{ipv4.Block(0x01020400), time.Nanosecond},
		{ipv4.Block(0x01020500), 42*time.Millisecond + 17*time.Nanosecond},
	} {
		got, ok := back.Catchment.RTTOf(want.b)
		if !ok || got != want.rtt {
			t.Errorf("RTT of %v = %v/%v, want %v", want.b, got, ok, want.rtt)
		}
	}
}

// TestWriteEnforcesCaps: the writers must refuse to produce files the
// readers would reject, with the typed limit error.
func TestWriteEnforcesCaps(t *testing.T) {
	tooManySites := make([]string, MaxMetaSites+1)
	for i := range tooManySites {
		tooManySites[i] = fmt.Sprintf("s%d", i)
	}
	c := catchmentOver(1, ipv4.Block(0x01020300))
	c.Set(ipv4.Block(0x01020300), 0)
	ds := &Dataset{Meta: Meta{ID: "X", Sites: tooManySites}, Catchment: c}
	if err := Write(io.Discard, ds); !errors.Is(err, ErrLimit) {
		t.Errorf("oversized meta sites: err = %v, want ErrLimit", err)
	}

	if _, err := NewStreamWriter(io.Discard, Meta{}, verfploeter.Stats{}, MaxSites+1, 1); !errors.Is(err, ErrLimit) {
		t.Errorf("oversized nSite: err = %v, want ErrLimit", err)
	}
	if _, err := NewStreamWriter(io.Discard, Meta{}, verfploeter.Stats{}, 0, 1); !errors.Is(err, ErrLimit) {
		t.Errorf("zero nSite: err = %v, want ErrLimit", err)
	}
	if _, err := NewStreamWriter(io.Discard, Meta{}, verfploeter.Stats{}, 1, MaxEntries+1); !errors.Is(err, ErrLimit) {
		t.Errorf("oversized entry count: err = %v, want ErrLimit", err)
	}

	// The series writer enforces the same limits.
	s := &Series{
		Meta:     Meta{ID: "mon", Sites: tooManySites},
		Baseline: c,
	}
	if err := WriteSeries(io.Discard, s); !errors.Is(err, ErrLimit) {
		t.Errorf("series oversized meta sites: err = %v, want ErrLimit", err)
	}
	s.Meta.Sites = []string{"lax"}
	s.Baseline = verfploeter.NewCatchment(MaxSites+1, nil)
	if err := WriteSeries(io.Discard, s); !errors.Is(err, ErrLimit) {
		t.Errorf("series oversized catchment sites: err = %v, want ErrLimit", err)
	}
}

// TestStreamWriterContract: out-of-order blocks, bad sites, count
// mismatches — each refused with a clean error.
func TestStreamWriterContract(t *testing.T) {
	newSW := func(n int) *StreamWriter {
		sw, err := NewStreamWriter(io.Discard, Meta{ID: "C"}, verfploeter.Stats{}, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	sw := newSW(2)
	if err := sw.Append(ipv4.Block(0x02000000), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(ipv4.Block(0x01000000), 0, 0); !errors.Is(err, ErrFormat) {
		t.Errorf("descending block: err = %v, want ErrFormat", err)
	}
	sw = newSW(1)
	if err := sw.Append(ipv4.Block(0x01000000), 2, 0); !errors.Is(err, ErrFormat) {
		t.Errorf("site out of range: err = %v, want ErrFormat", err)
	}
	sw = newSW(1)
	if err := sw.Close(); !errors.Is(err, ErrFormat) {
		t.Errorf("short close: err = %v, want ErrFormat", err)
	}
	sw = newSW(1)
	if err := sw.Append(ipv4.Block(0x01000000), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(ipv4.Block(0x02000000), 0, 0); !errors.Is(err, ErrFormat) {
		t.Errorf("extra append: err = %v, want ErrFormat", err)
	}
}

// streamDrain reads an entire file through the streaming reader,
// failing the way Read would on any malformed content.
func streamDrain(r io.Reader) (*Dataset, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	for {
		e, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sr.Close()
			return nil, err
		}
		entries = append(entries, e)
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	c := catchmentOver(sr.NSite(), blocksOf(entries)...)
	for _, e := range entries {
		c.SetRTT(e.Block, e.Site, e.RTT)
	}
	return &Dataset{Meta: sr.Meta(), Catchment: c, Stats: sr.Stats()}, nil
}

// TestStreamRoundTripProperty: the streaming reader must recover
// everything the resident reader does, across randomized datasets.
func TestStreamRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		ds := randomDataset(r)
		var buf bytes.Buffer
		if err := Write(&buf, ds); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		back, err := streamDrain(&buf)
		if err != nil {
			t.Fatalf("trial %d: stream read: %v", trial, err)
		}
		if back.Meta.ID != ds.Meta.ID || back.Stats != ds.Stats {
			t.Fatalf("trial %d: header differs", trial)
		}
		catchmentsExactlyEqual(t, ds.Catchment, back.Catchment)
	}
}

// TestTruncatedStreamErrors is the every-interior-byte truncation sweep
// against the v4 streaming reader: no cut of the compressed stream or
// of the payload behind an intact gzip envelope may stream through
// silently.
func TestTruncatedStreamErrors(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ds := randomDataset(r)
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for cut := 0; cut < len(raw); cut++ {
		if _, err := streamDrain(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("compressed truncation at %d/%d streamed successfully", cut, len(raw))
		}
	}

	payload := gunzip(t, raw)
	for cut := 0; cut < len(payload); cut++ {
		_, err := streamDrain(bytes.NewReader(regzip(t, payload[:cut])))
		if err == nil {
			t.Fatalf("payload truncation at %d/%d streamed successfully", cut, len(payload))
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("payload truncation at %d: error not ErrFormat: %v", cut, err)
		}
	}

	// Trailing garbage behind the declared record must fail Close, for
	// the streaming and the resident reader alike.
	if _, err := streamDrain(bytes.NewReader(regzip(t, append(append([]byte{}, payload...), 0xEE)))); !errors.Is(err, ErrFormat) {
		t.Fatalf("trailing data streamed: %v", err)
	}
	if _, err := Read(bytes.NewReader(regzip(t, append(append([]byte{}, payload...), 0xEE)))); !errors.Is(err, ErrFormat) {
		t.Fatalf("trailing data read: %v", err)
	}
}

// writeV2 mirrors Write's field order as of format version 2 — the
// microsecond RTT encoding, including its sub-µs truncation — so the
// upgrade tests can exercise real legacy bytes without a legacy writer
// in the production path.
func writeV2(t *testing.T, w io.Writer, ds *Dataset) {
	t.Helper()
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)
	bw.Write(magic[:])
	writeU16(bw, versionV2)
	writeString(bw, ds.Meta.ID)
	writeString(bw, ds.Meta.Scenario)
	writeU16(bw, uint16(len(ds.Meta.Sites)))
	for _, s := range ds.Meta.Sites {
		writeString(bw, s)
	}
	writeU16(bw, ds.Meta.RoundID)
	writeU64(bw, ds.Meta.Seed)
	writeU64(bw, uint64(ds.Meta.CreatedUnix))
	for _, v := range []uint64{
		uint64(ds.Stats.Sent), uint64(ds.Stats.SendErrs),
		uint64(ds.Stats.Elapsed), uint64(ds.Stats.MedianRTT),
		uint64(ds.Stats.Clean.Total), uint64(ds.Stats.Clean.WrongRound),
		uint64(ds.Stats.Clean.Late), uint64(ds.Stats.Clean.Unsolicited),
		uint64(ds.Stats.Clean.Duplicates), uint64(ds.Stats.Clean.Kept),
		uint64(ds.Stats.Targets), uint64(ds.Stats.Responded), uint64(ds.Stats.Retried),
	} {
		writeU64(bw, v)
	}
	writeU32(bw, uint32(ds.Catchment.NSite))
	blocks := ds.Catchment.Blocks()
	writeU32(bw, uint32(len(blocks)))
	for _, b := range blocks {
		site, _ := ds.Catchment.SiteOf(b)
		writeU32(bw, uint32(b))
		writeU16(bw, uint16(site))
		rttMicros := uint32(0)
		if rtt, ok := ds.Catchment.RTTOf(b); ok {
			rttMicros = uint32(rtt.Microseconds())
		}
		writeU32(bw, rttMicros)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeRoundTripProperty: legacy v1 and v2 files, read and
// rewritten in v4, must preserve every field exactly. RTTs in the
// generator are µs-quantized (the legacy granularity), so equality can
// be exact end to end.
func TestUpgradeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		ds := randomDataset(r)
		for _, legacy := range []struct {
			name  string
			write func(*testing.T, io.Writer, *Dataset)
		}{
			{"v1", writeV1},
			{"v2", writeV2},
		} {
			var buf bytes.Buffer
			legacy.write(t, &buf, ds)
			mid, err := Read(&buf)
			if err != nil {
				t.Fatalf("trial %d: read %s: %v", trial, legacy.name, err)
			}
			var up bytes.Buffer
			if err := Write(&up, mid); err != nil {
				t.Fatalf("trial %d: rewrite %s as v4: %v", trial, legacy.name, err)
			}
			back, err := streamDrain(&up)
			if err != nil {
				t.Fatalf("trial %d: stream upgraded %s: %v", trial, legacy.name, err)
			}
			if back.Meta.ID != ds.Meta.ID || back.Meta.RoundID != ds.Meta.RoundID ||
				back.Meta.Seed != ds.Meta.Seed {
				t.Fatalf("trial %d: %s meta lost in upgrade", trial, legacy.name)
			}
			catchmentsExactlyEqual(t, mid.Catchment, back.Catchment)
			if legacy.name == "v2" {
				if back.Stats != ds.Stats {
					t.Fatalf("trial %d: v2 stats lost in upgrade", trial)
				}
				catchmentsExactlyEqual(t, ds.Catchment, back.Catchment)
			}
		}
	}
}

// TestUpgradeSeriesEpochToV4: a v3 monitoring-series epoch, materialized
// via At() and persisted as a v4 dataset, must round-trip exactly — the
// series' nanosecond RTTs fit v4 without loss.
func TestUpgradeSeriesEpochToV4(t *testing.T) {
	base := catchmentOver(2, ipv4.Block(0x01020300), ipv4.Block(0x01020400))
	base.SetRTT(ipv4.Block(0x01020300), 0, 40*time.Millisecond+321*time.Nanosecond)
	base.Set(ipv4.Block(0x01020400), 1)
	s := &Series{
		Meta:     Meta{ID: "mon", Scenario: "b-root", Sites: []string{"lax", "mia"}, RoundID: 900},
		Strata:   4,
		Baseline: base,
		Epochs: []SeriesEpoch{{
			Epoch:   1,
			Probes:  10,
			Changed: []Delta{{Block: ipv4.Block(0x01020400), Site: 0, RTT: time.Microsecond + time.Nanosecond}},
		}},
	}
	var buf bytes.Buffer
	if err := WriteSeries(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < back.Len(); epoch++ {
		c, err := back.At(epoch)
		if err != nil {
			t.Fatal(err)
		}
		ds := &Dataset{Meta: back.Meta, Catchment: c}
		var up bytes.Buffer
		if err := Write(&up, ds); err != nil {
			t.Fatalf("epoch %d: write v4: %v", epoch, err)
		}
		got, err := Read(&up)
		if err != nil {
			t.Fatalf("epoch %d: read v4: %v", epoch, err)
		}
		catchmentsExactlyEqual(t, c, got.Catchment)
	}
}

// TestStreamWriterAppendAllocs gates the v4 writer's per-entry cost:
// Append encodes into the bufio.Writer's spare capacity and the deflater
// reuses its window, so an entry allocates nothing. An internet-tier
// sweep writes ~600 k entries, so one escaping scratch array per field
// would cost 1.8 M allocations a round.
func TestStreamWriterAppendAllocs(t *testing.T) {
	const runs = 2000
	sw, err := NewStreamWriter(io.Discard, Meta{ID: "ALLOCS"}, verfploeter.Stats{}, 4, runs+1)
	if err != nil {
		t.Fatal(err)
	}
	b := ipv4.Block(0x010000)
	allocs := testing.AllocsPerRun(runs, func() {
		b++
		if err := sw.Append(b, int(b)%4, time.Duration(b)*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StreamWriter.Append: %v allocs per entry, want 0", allocs)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSeriesEntryWriterAllocs gates the v3 series' entry writer (the
// baseline and every epoch's deltas) the same way.
func TestSeriesEntryWriterAllocs(t *testing.T) {
	zw, _ := gzip.NewWriterLevel(io.Discard, compressLevel)
	bw := bufio.NewWriter(zw)
	ds := make([]Delta, 512)
	for i := range ds {
		ds[i] = Delta{Block: ipv4.Block(0x010000 + i), Site: int16(i % 4), RTT: time.Duration(i) * time.Millisecond}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := writeDeltas(bw, ds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("writeDeltas: %v allocs per %d entries, want 0", allocs, len(ds))
	}
}

// BenchmarkStreamWriterAppend measures one v4 entry through the whole
// writer: encode, buffer and deflate at compressLevel.
func BenchmarkStreamWriterAppend(b *testing.B) {
	sw, err := NewStreamWriter(io.Discard, Meta{ID: "BENCH"}, verfploeter.Stats{}, 16, b.N)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.Append(ipv4.Block(i), r.Intn(16), time.Duration(r.Int63n(int64(300*time.Millisecond)))); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
}
