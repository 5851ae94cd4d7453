package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"verfploeter/internal/ipv4"
)

// addingSeries is a hand-built series whose later epochs add blocks the
// baseline never mapped, change and remove them, and add one back. Its
// baseline is indexed over every block any epoch touches, as the
// monitor's hitlist-indexed baselines are.
func addingSeries() *Series {
	b1, b2, b3, b4 := ipv4.Block(0x0a0001), ipv4.Block(0x0a0002), ipv4.Block(0x0a0003), ipv4.Block(0x0a0004)
	base := catchmentOver(3, b1, b2, b3, b4)
	base.SetRTT(b2, 0, 20*time.Millisecond)
	return &Series{
		Meta:     Meta{ID: "mon", Scenario: "b-root", Sites: []string{"lax", "mia", "ams"}},
		Baseline: base,
		Epochs: []SeriesEpoch{
			{Epoch: 1, Added: []Delta{{Block: b4, Site: 2, RTT: 4 * time.Millisecond}, {Block: b1, Site: 1}}},
			{Epoch: 2, Changed: []Delta{{Block: b4, Site: 0}, {Block: b2, Site: 1, RTT: 7 * time.Millisecond}},
				Added: []Delta{{Block: b3, Site: 2, RTT: time.Millisecond}}},
			{Epoch: 3, Removed: []ipv4.Block{b1, b4}},
			{Epoch: 4, Added: []Delta{{Block: b4, Site: 1, RTT: 9 * time.Millisecond}}},
		},
	}
}

// TestSeriesAddedBlocksRoundTrip: blocks absent from the baseline that
// later epochs add must survive WriteSeries → ReadSeries → At(k), equal
// to the in-memory At(k) at every epoch.
func TestSeriesAddedBlocksRoundTrip(t *testing.T) {
	s := addingSeries()
	var buf bytes.Buffer
	if err := WriteSeries(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Baseline.Len() != 1 {
		t.Fatalf("read-back baseline maps %d blocks, want 1", back.Baseline.Len())
	}
	for k := 0; k < s.Len(); k++ {
		want, err := s.At(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.At(k)
		if err != nil {
			t.Fatalf("read-back At(%d): %v", k, err)
		}
		if !got.Equal(want) {
			t.Errorf("At(%d): read-back map %v differs from in-memory %v", k, got.Blocks(), want.Blocks())
		}
	}
	if last, _ := back.At(4); last.Len() != 3 {
		t.Errorf("At(4) maps %d blocks, want 3", last.Len())
	}
}

// TestSeriesAtDeltaOutsideIndex: a hand-built series whose delta names a
// block outside the baseline's index cannot be replayed; At reports it
// as an error, not a panic.
func TestSeriesAtDeltaOutsideIndex(t *testing.T) {
	s := addingSeries()
	s.Epochs[1].Added = append(s.Epochs[1].Added, Delta{Block: 0x0b0000, Site: 0})
	if _, err := s.At(1); err != nil {
		t.Fatalf("At(1) precedes the bad delta: %v", err)
	}
	_, err := s.At(2)
	if err == nil || !strings.Contains(err.Error(), "epoch 2") {
		t.Fatalf("At(2) = %v, want an error naming epoch 2", err)
	}
}

// TestSeriesRTTOverflow: an RTT with the top bit set does not fit a
// time.Duration. The series decoders reject it with ErrFormat, in the
// baseline and in a delta alike, as the v4 dataset decoder does.
func TestSeriesRTTOverflow(t *testing.T) {
	baseRTT, deltaRTT := time.Duration(0x0123456789abcdef), time.Duration(0x0fedcba987654321)
	s := addingSeries()
	s.Baseline.Reassign(0x0a0002, 0, baseRTT)
	s.Epochs[0].Added[0].RTT = deltaRTT
	var buf bytes.Buffer
	if err := WriteSeries(&buf, s); err != nil {
		t.Fatal(err)
	}
	payload := gunzip(t, buf.Bytes())
	for name, rtt := range map[string]time.Duration{"baseline": baseRTT, "delta": deltaRTT} {
		var field [8]byte
		binary.BigEndian.PutUint64(field[:], uint64(rtt))
		at := bytes.Index(payload, field[:])
		if at < 0 || bytes.Count(payload, field[:]) != 1 {
			t.Fatalf("%s RTT not found exactly once in the payload", name)
		}
		bad := append([]byte{}, payload...)
		bad[at] |= 0x80
		if _, err := ReadSeries(bytes.NewReader(regzip(t, bad))); !errors.Is(err, ErrFormat) {
			t.Errorf("%s RTT overflow: err = %v, want ErrFormat", name, err)
		}
	}
}
