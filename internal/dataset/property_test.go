package dataset

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"verfploeter/internal/colstore"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/verfploeter"
)

// randomDataset builds an arbitrary-but-valid dataset from a seeded
// source. RTTs are quantized to whole microseconds, the v2 on-disk
// granularity, so the round trip can demand exact equality.
func randomDataset(r *rand.Rand) *Dataset {
	nSite := 1 + r.Intn(5)
	sites := make([]string, nSite)
	for i := range sites {
		sites[i] = fmt.Sprintf("s%02d-%x", i, r.Uint32())
	}
	var entries []Entry
	for i, n := 0, r.Intn(200); i < n; i++ {
		e := Entry{Block: ipv4.Block(r.Uint32()), Site: r.Intn(nSite)}
		if r.Intn(2) == 0 {
			e.RTT = time.Duration(1+r.Intn(500000)) * time.Microsecond
		}
		entries = append(entries, e)
	}
	c := catchmentOver(nSite, blocksOf(entries)...)
	for _, e := range entries {
		c.SetRTT(e.Block, e.Site, e.RTT)
	}
	return &Dataset{
		Meta: Meta{
			ID:          fmt.Sprintf("SBV-%d-%d", r.Intn(12)+1, r.Intn(28)+1),
			Scenario:    "b-root",
			Sites:       sites,
			RoundID:     uint16(r.Uint32()),
			Seed:        r.Uint64(),
			CreatedUnix: r.Int63(),
		},
		Catchment: c,
		Stats: verfploeter.Stats{
			Sent: r.Intn(1 << 20), SendErrs: r.Intn(100),
			Elapsed: time.Duration(r.Int63n(int64(time.Hour))), MedianRTT: time.Duration(r.Int63n(int64(time.Second))),
			Clean: verfploeter.CleanStats{
				Total: r.Intn(1 << 20), WrongRound: r.Intn(100), Late: r.Intn(100),
				Unsolicited: r.Intn(100), Duplicates: r.Intn(100), Kept: r.Intn(1 << 20),
			},
			Targets: r.Intn(1 << 20), Responded: r.Intn(1 << 20), Retried: r.Intn(1 << 10),
		},
	}
}

// catchmentOver returns an empty catchment whose index holds the given
// blocks (any order, duplicates allowed).
func catchmentOver(nSite int, blocks ...ipv4.Block) *verfploeter.Catchment {
	bs := slices.Clone(blocks)
	slices.Sort(bs)
	return verfploeter.NewCatchment(nSite, colstore.NewIndex(slices.Compact(bs)))
}

func blocksOf(entries []Entry) []ipv4.Block {
	out := make([]ipv4.Block, len(entries))
	for i, e := range entries {
		out[i] = e.Block
	}
	return out
}

func catchmentsExactlyEqual(t *testing.T, want, got *verfploeter.Catchment) {
	t.Helper()
	if want.NSite != got.NSite || want.Len() != got.Len() || want.RTTCount() != got.RTTCount() {
		t.Fatalf("shape differs: %d/%d/%d sites/blocks/rtts vs %d/%d/%d",
			want.NSite, want.Len(), want.RTTCount(), got.NSite, got.Len(), got.RTTCount())
	}
	want.Range(func(b ipv4.Block, site int) bool {
		s2, ok := got.SiteOf(b)
		if !ok || s2 != site {
			t.Fatalf("site differs at %v: %d vs %d (ok=%v)", b, site, s2, ok)
		}
		wr, wok := want.RTTOf(b)
		gr, gok := got.RTTOf(b)
		if wok != gok || wr != gr {
			t.Fatalf("RTT differs at %v: %v/%v vs %v/%v", b, wr, wok, gr, gok)
		}
		return true
	})
}

// TestRoundTripProperty is the v2 writer/reader property test: many
// randomized datasets must survive a write/read cycle without losing or
// altering a single field.
func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		ds := randomDataset(r)
		var buf bytes.Buffer
		if err := Write(&buf, ds); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if back.Meta.ID != ds.Meta.ID || back.Meta.Scenario != ds.Meta.Scenario ||
			back.Meta.RoundID != ds.Meta.RoundID || back.Meta.Seed != ds.Meta.Seed ||
			back.Meta.CreatedUnix != ds.Meta.CreatedUnix {
			t.Fatalf("trial %d: meta differs: %+v vs %+v", trial, back.Meta, ds.Meta)
		}
		if len(back.Meta.Sites) != len(ds.Meta.Sites) {
			t.Fatalf("trial %d: site count differs", trial)
		}
		for i := range ds.Meta.Sites {
			if back.Meta.Sites[i] != ds.Meta.Sites[i] {
				t.Fatalf("trial %d: site %d differs: %q vs %q", trial, i, back.Meta.Sites[i], ds.Meta.Sites[i])
			}
		}
		if back.Stats != ds.Stats {
			t.Fatalf("trial %d: stats differ: %+v vs %+v", trial, back.Stats, ds.Stats)
		}
		catchmentsExactlyEqual(t, ds.Catchment, back.Catchment)
	}
}

// gunzip decompresses a complete in-memory gzip stream.
func gunzip(t *testing.T, data []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// regzip recompresses a raw payload so the reader sees a well-formed
// gzip stream whose content ends early.
func regzip(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncatedDatasetErrors cuts a valid v2 file at every interior
// byte — both of the compressed stream and of the decompressed payload
// — and requires a clean error (never a panic, never a silent success).
func TestTruncatedDatasetErrors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds := randomDataset(r)
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Compressed-stream truncation: gzip header or checksum damage.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("compressed truncation at %d/%d bytes read successfully", cut, len(raw))
		}
	}

	// Payload truncation behind an intact gzip envelope: every interior
	// cut must surface as ErrFormat from the record readers.
	payload := gunzip(t, raw)
	for cut := 0; cut < len(payload); cut++ {
		_, err := Read(bytes.NewReader(regzip(t, payload[:cut])))
		if err == nil {
			t.Fatalf("payload truncation at %d/%d bytes read successfully", cut, len(payload))
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("payload truncation at %d: error not ErrFormat: %v", cut, err)
		}
	}
}

// TestTruncatedSeriesErrors is the same every-interior-byte sweep for
// the v3 series reader.
func TestTruncatedSeriesErrors(t *testing.T) {
	base := catchmentOver(2, ipv4.Block(0x01020300), ipv4.Block(0x01020400))
	base.SetRTT(ipv4.Block(0x01020300), 0, 40*time.Millisecond)
	base.Set(ipv4.Block(0x01020400), 1)
	s := &Series{
		Meta:     Meta{ID: "mon", Scenario: "b-root", Sites: []string{"lax", "mia"}, RoundID: 900},
		Strata:   4,
		Baseline: base,
		Epochs: []SeriesEpoch{{
			Epoch:   1,
			Probes:  10,
			Changed: []Delta{{Block: ipv4.Block(0x01020400), Site: 0, RTT: time.Millisecond}},
			Removed: []ipv4.Block{ipv4.Block(0x01020300)},
			Events:  []Event{{Epoch: 1, Type: EventFlips, Cause: CauseUnexplained, Site: -1, Blocks: 1, Magnitude: 0.5}},
		}},
	}
	var buf bytes.Buffer
	if err := WriteSeries(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadSeries(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("compressed series truncation at %d/%d read successfully", cut, len(raw))
		}
	}
	payload := gunzip(t, raw)
	for cut := 0; cut < len(payload); cut++ {
		_, err := ReadSeries(bytes.NewReader(regzip(t, payload[:cut])))
		if err == nil {
			t.Fatalf("series payload truncation at %d/%d read successfully", cut, len(payload))
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("series payload truncation at %d: error not ErrFormat: %v", cut, err)
		}
	}
}

// writeV1 mirrors Write's field order as of format version 1: no
// sweep-health stats (Targets/Responded/Retried) at the end of the
// stats block. The v1 reader path has no writer anymore, so the test
// carries the legacy layout itself.
func writeV1(t *testing.T, w io.Writer, ds *Dataset) {
	t.Helper()
	var entries []Entry
	for _, b := range ds.Catchment.Blocks() {
		site, _ := ds.Catchment.SiteOf(b)
		rtt, _ := ds.Catchment.RTTOf(b)
		entries = append(entries, Entry{Block: b, Site: site, RTT: rtt})
	}
	writeV1Entries(t, w, ds, entries)
}

// writeV1Entries writes a v1 file with ds's header and the given
// entries, in the given order — v1 never promised sorted or unique
// blocks.
func writeV1Entries(t *testing.T, w io.Writer, ds *Dataset, entries []Entry) {
	t.Helper()
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)
	bw.Write(magic[:])
	writeU16(bw, 1)
	writeString(bw, ds.Meta.ID)
	writeString(bw, ds.Meta.Scenario)
	writeU16(bw, uint16(len(ds.Meta.Sites)))
	for _, s := range ds.Meta.Sites {
		writeString(bw, s)
	}
	writeU16(bw, ds.Meta.RoundID)
	writeU64(bw, ds.Meta.Seed)
	writeU64(bw, uint64(ds.Meta.CreatedUnix))
	writeU64(bw, uint64(ds.Stats.Sent))
	writeU64(bw, uint64(ds.Stats.SendErrs))
	writeU64(bw, uint64(ds.Stats.Elapsed))
	writeU64(bw, uint64(ds.Stats.MedianRTT))
	writeU64(bw, uint64(ds.Stats.Clean.Total))
	writeU64(bw, uint64(ds.Stats.Clean.WrongRound))
	writeU64(bw, uint64(ds.Stats.Clean.Late))
	writeU64(bw, uint64(ds.Stats.Clean.Unsolicited))
	writeU64(bw, uint64(ds.Stats.Clean.Duplicates))
	writeU64(bw, uint64(ds.Stats.Clean.Kept))
	writeU32(bw, uint32(ds.Catchment.NSite))
	writeU32(bw, uint32(len(entries)))
	for _, e := range entries {
		writeU32(bw, uint32(e.Block))
		writeU16(bw, uint16(e.Site))
		writeU32(bw, uint32(e.RTT.Microseconds()))
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadV1UnsortedDuplicates: a v1 file may list blocks in any order
// and more than once. Read indexes them sorted, and the first entry for
// a block wins.
func TestReadV1UnsortedDuplicates(t *testing.T) {
	ds := &Dataset{Meta: Meta{ID: "V1"}, Catchment: verfploeter.NewCatchment(3, nil)}
	var buf bytes.Buffer
	writeV1Entries(t, &buf, ds, []Entry{
		{Block: 0x0a0003, Site: 2, RTT: 3 * time.Millisecond},
		{Block: 0x0a0001, Site: 0},
		{Block: 0x0a0003, Site: 1, RTT: 9 * time.Millisecond}, // duplicate: loses
		{Block: 0x0a0002, Site: 1, RTT: 2 * time.Millisecond},
		{Block: 0x0a0001, Site: 2, RTT: time.Millisecond}, // duplicate: loses
	})
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Block: 0x0a0001, Site: 0},
		{Block: 0x0a0002, Site: 1, RTT: 2 * time.Millisecond},
		{Block: 0x0a0003, Site: 2, RTT: 3 * time.Millisecond},
	}
	var got []Entry
	back.Catchment.Range(func(b ipv4.Block, site int) bool {
		rtt, _ := back.Catchment.RTTOf(b)
		got = append(got, Entry{Block: b, Site: site, RTT: rtt})
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
}

// TestReadV1Compatibility: version-1 files (no sweep-health stats)
// still read, with the missing fields zero and everything else intact.
func TestReadV1Compatibility(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ds := randomDataset(r)
	var buf bytes.Buffer
	writeV1(t, &buf, ds)
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.ID != ds.Meta.ID || back.Meta.RoundID != ds.Meta.RoundID {
		t.Fatalf("v1 meta differs: %+v vs %+v", back.Meta, ds.Meta)
	}
	if back.Stats.Targets != 0 || back.Stats.Responded != 0 || back.Stats.Retried != 0 {
		t.Fatalf("v1 sweep-health stats should be zero, got %+v", back.Stats)
	}
	if back.Stats.Sent != ds.Stats.Sent || back.Stats.Clean != ds.Stats.Clean {
		t.Fatalf("v1 stats differ: %+v vs %+v", back.Stats, ds.Stats)
	}
	catchmentsExactlyEqual(t, ds.Catchment, back.Catchment)
}
