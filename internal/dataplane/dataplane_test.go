package dataplane

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/packet"
	"verfploeter/internal/topology"
	"verfploeter/internal/vclock"
)

const anycastPrefixStr = "198.18.0.0/24"

func measurementAddr() ipv4.Addr { return ipv4.MustParseAddr("198.18.0.1") }

type fixture struct {
	top   *topology.Topology
	clock *vclock.Clock
	net   *Net
	rx    [][][]byte // per site, captured packets
}

func newFixture(t *testing.T, imp Impairments, seed uint64) *fixture {
	t.Helper()
	top := topology.Generate(topology.DefaultParams(topology.SizeTiny, seed))
	anns := []bgp.Announcement{
		{Site: 0, UpstreamASN: top.ASes[0].ASN, Lat: 34, Lon: -118},
		{Site: 1, UpstreamASN: top.ASes[1].ASN, Lat: 26, Lon: -80},
	}
	asg := bgp.Compute(top, anns).Assign()
	clock := vclock.New()
	n := New(Config{
		Top: top, Clock: clock, Seed: seed, Impair: imp,
		AnycastPrefix: ipv4.MustParsePrefix(anycastPrefixStr),
	})
	n.SetAssignment(asg)
	f := &fixture{top: top, clock: clock, net: n, rx: make([][][]byte, 2)}
	for s := 0; s < 2; s++ {
		s := s
		n.AttachSite(s, func(pkt []byte) { f.rx[s] = append(f.rx[s], pkt) }, nil)
	}
	return f
}

func (f *fixture) probeAll(t *testing.T) {
	t.Helper()
	for i := range f.top.Blocks {
		raw := packet.MarshalEcho(measurementAddr(), f.top.Blocks[i].Block.Addr(1),
			packet.ICMPEchoRequest, 7, uint16(i), nil)
		if err := f.net.SendProbe(0, raw); err != nil {
			t.Fatalf("SendProbe: %v", err)
		}
	}
	f.clock.RunUntilIdle()
}

func TestProbeRepliesArriveAtCatchmentSite(t *testing.T) {
	imp := Impairments{BaseRTT: time.Millisecond} // no noise
	f := newFixture(t, imp, 11)
	f.probeAll(t)

	got0, got1 := len(f.rx[0]), len(f.rx[1])
	if got0 == 0 || got1 == 0 {
		t.Fatalf("both sites should capture replies, got %d/%d", got0, got1)
	}
	// Every reply must have arrived at the block's assigned site and be
	// addressed to the measurement address.
	for s := 0; s < 2; s++ {
		for _, raw := range f.rx[s] {
			p, err := packet.UnmarshalEcho(raw)
			if err != nil {
				t.Fatalf("captured packet corrupt: %v", err)
			}
			if p.IP.Dst != measurementAddr() {
				t.Fatalf("reply dst = %v", p.IP.Dst)
			}
			if p.Echo.Type != packet.ICMPEchoReply || p.Echo.Ident != 7 {
				t.Fatalf("reply echo = %+v", p.Echo)
			}
			if want := f.net.SiteOfBlock(p.IP.Src.Block()); want != s {
				t.Fatalf("reply from %v captured at site %d, assignment says %d",
					p.IP.Src, s, want)
			}
		}
	}
}

func TestResponseRateMatchesResponsiveness(t *testing.T) {
	f := newFixture(t, Impairments{}, 13)
	f.probeAll(t)
	replies := len(f.rx[0]) + len(f.rx[1])
	frac := float64(replies) / float64(len(f.top.Blocks))
	if frac < 0.35 || frac > 0.70 {
		t.Errorf("response fraction = %.3f, want ~0.45-0.60", frac)
	}
	st := f.net.Stats()
	if st.ProbesSent != uint64(len(f.top.Blocks)) {
		t.Errorf("ProbesSent = %d", st.ProbesSent)
	}
	if st.Unresponsive == 0 {
		t.Error("expected some unresponsive blocks")
	}
	// Responds() ground truth agrees with observed replies.
	for i := range f.top.Blocks {
		b := f.top.Blocks[i].Block
		found := false
		for s := 0; s < 2 && !found; s++ {
			for _, raw := range f.rx[s] {
				p, _ := packet.UnmarshalEcho(raw)
				if p.IP.Src.Block() == b {
					found = true
					break
				}
			}
		}
		// Aliased replies make src≠target, so only check the forward
		// implication with aliasing off (it is, in this fixture).
		if f.net.Responds(b) && !found {
			t.Fatalf("block %v should respond but no reply captured", b)
		}
	}
}

func TestDuplicatesAndAliases(t *testing.T) {
	imp := DefaultImpairments()
	imp.LateFrac = 0
	f := newFixture(t, imp, 17)
	f.probeAll(t)
	st := f.net.Stats()
	if st.Duplicates == 0 {
		t.Error("expected duplicate replies at default impairments")
	}
	if st.Aliased == 0 {
		t.Error("expected aliased replies at default impairments")
	}
	if st.Replies <= st.ProbesSent/3 {
		t.Errorf("replies = %d of %d probes", st.Replies, st.ProbesSent)
	}
}

func TestLateRepliesAreLate(t *testing.T) {
	imp := Impairments{LateFrac: 1, LateDelay: 16 * time.Minute}
	f := newFixture(t, imp, 19)
	for i := range f.top.Blocks {
		raw := packet.MarshalEcho(measurementAddr(), f.top.Blocks[i].Block.Addr(1),
			packet.ICMPEchoRequest, 1, 0, nil)
		if err := f.net.SendProbe(0, raw); err != nil {
			t.Fatal(err)
		}
	}
	f.clock.Advance(15 * time.Minute)
	if n := len(f.rx[0]) + len(f.rx[1]); n != 0 {
		t.Fatalf("%d replies arrived before the late delay", n)
	}
	f.clock.RunUntilIdle()
	if n := len(f.rx[0]) + len(f.rx[1]); n == 0 {
		t.Fatal("late replies never arrived")
	}
}

func TestSendProbeValidation(t *testing.T) {
	f := newFixture(t, Impairments{}, 23)

	// Wrong source.
	raw := packet.MarshalEcho(ipv4.MustParseAddr("10.0.0.1"), f.top.Blocks[0].Block.Addr(1),
		packet.ICMPEchoRequest, 1, 0, nil)
	if err := f.net.SendProbe(0, raw); !errors.Is(err, ErrBadSource) {
		t.Errorf("bad source: %v", err)
	}

	// Garbage bytes.
	if err := f.net.SendProbe(0, []byte{1, 2, 3}); err == nil {
		t.Error("garbage probe should error")
	}

	// Unknown destination block: silently absorbed.
	raw = packet.MarshalEcho(measurementAddr(), ipv4.MustParseAddr("223.1.2.3"),
		packet.ICMPEchoRequest, 1, 0, nil)
	if err := f.net.SendProbe(0, raw); err != nil {
		t.Errorf("unrouted dst: %v", err)
	}
	if f.net.Stats().UnknownBlocks != 1 {
		t.Error("UnknownBlocks not counted")
	}

	// No assignment installed.
	n2 := New(Config{Top: f.top, Clock: f.clock, AnycastPrefix: ipv4.MustParsePrefix(anycastPrefixStr)})
	if err := n2.SendProbe(0, raw); !errors.Is(err, ErrNoAssignment) {
		t.Errorf("no assignment: %v", err)
	}
}

func TestQueryAnycastRouting(t *testing.T) {
	f := newFixture(t, Impairments{}, 29)
	for s := 0; s < 2; s++ {
		s := s
		f.net.AttachSite(s, func([]byte) {}, func(q []byte) []byte {
			return append([]byte{byte(s)}, q...)
		})
	}
	for i := 0; i < len(f.top.Blocks); i += 13 {
		from := f.top.Blocks[i].Block.Addr(53)
		resp, site, err := f.net.QueryAnycast(from, []byte{0xaa})
		if err != nil {
			t.Fatal(err)
		}
		if want := f.net.SiteOfBlock(from.Block()); want != site {
			t.Fatalf("query routed to %d, assignment says %d", site, want)
		}
		if len(resp) != 2 || resp[0] != byte(site) || resp[1] != 0xaa {
			t.Fatalf("handler response corrupted: %v", resp)
		}
	}
	// Unknown client.
	if _, _, err := f.net.QueryAnycast(ipv4.MustParseAddr("223.9.9.9"), nil); !errors.Is(err, ErrNoRoute) {
		t.Errorf("unrouted client: %v", err)
	}
}

func TestRoundChangesChurnResponsiveness(t *testing.T) {
	f := newFixture(t, Impairments{}, 31)
	changed := 0
	for i := range f.top.Blocks {
		b := f.top.Blocks[i].Block
		f.net.SetRound(0)
		r0 := f.net.Responds(b)
		f.net.SetRound(1)
		if f.net.Responds(b) != r0 {
			changed++
		}
	}
	if changed == 0 {
		t.Error("responsiveness should churn between rounds")
	}
	if changed > len(f.top.Blocks)/2 {
		t.Errorf("churn too violent: %d of %d changed", changed, len(f.top.Blocks))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Stats {
		f := newFixture(t, DefaultImpairments(), 37)
		f.probeAll(t)
		return f.net.Stats()
	}
	if run() != run() {
		t.Error("identical seeds must give identical stats")
	}
}

func TestTestPrefixRouting(t *testing.T) {
	top := topology.Generate(topology.DefaultParams(topology.SizeTiny, 51))
	prodAnns := []bgp.Announcement{
		{Site: 0, UpstreamASN: top.ASes[0].ASN, Lat: 34, Lon: -118},
		{Site: 1, UpstreamASN: top.ASes[1].ASN, Lat: 26, Lon: -80},
	}
	// Test prefix announced MIA-only: catchments must differ.
	testAnns := []bgp.Announcement{
		{Site: 0, UpstreamASN: top.ASes[0].ASN, Lat: 34, Lon: -118, Prepend: 3},
		{Site: 1, UpstreamASN: top.ASes[1].ASN, Lat: 26, Lon: -80},
	}
	clock := vclock.New()
	n := New(Config{
		Top: top, Clock: clock, Seed: 51,
		AnycastPrefix: ipv4.MustParsePrefix("198.18.0.0/24"),
		TestPrefix:    ipv4.MustParsePrefix("198.18.1.0/24"),
	})
	n.SetAssignment(bgp.Compute(top, prodAnns).Assign())

	var rx [2]int
	for s := 0; s < 2; s++ {
		s := s
		n.AttachSite(s, func([]byte) { rx[s]++ }, nil)
	}

	// Probing from the test prefix before announcing it fails.
	tgt := top.Blocks[0].Block.Addr(1)
	raw := packet.MarshalEcho(ipv4.MustParseAddr("198.18.1.1"), tgt,
		packet.ICMPEchoRequest, 1, 0, nil)
	if err := n.SendProbe(0, raw); !errors.Is(err, ErrNoAssignment) {
		t.Fatalf("test probe without assignment: %v", err)
	}

	n.SetTestAssignment(bgp.Compute(top, testAnns).Assign())

	// Probe every block from both prefixes; the test-prefix replies
	// should skew far more to site 1 (LAX prepended +3 on test).
	var prod, test [2]int
	for i := range top.Blocks {
		a := top.Blocks[i].Block.Addr(1)
		rx = [2]int{}
		p := packet.MarshalEcho(ipv4.MustParseAddr("198.18.0.1"), a, packet.ICMPEchoRequest, 1, 0, nil)
		if err := n.SendProbe(0, p); err != nil {
			t.Fatal(err)
		}
		clock.RunUntilIdle()
		for s := 0; s < 2; s++ {
			prod[s] += rx[s]
		}
		rx = [2]int{}
		q := packet.MarshalEcho(ipv4.MustParseAddr("198.18.1.1"), a, packet.ICMPEchoRequest, 2, 0, nil)
		if err := n.SendProbe(0, q); err != nil {
			t.Fatal(err)
		}
		clock.RunUntilIdle()
		for s := 0; s < 2; s++ {
			test[s] += rx[s]
		}
	}
	prodFrac := float64(prod[0]) / float64(prod[0]+prod[1])
	testFrac := float64(test[0]) / float64(test[0]+test[1])
	if testFrac >= prodFrac {
		t.Errorf("test prefix (LAX+3) share %.3f should be below production %.3f", testFrac, prodFrac)
	}
}

// refHash is the historic coin: the kind's name folded into the seed
// byte by byte on every call. hash must reproduce it bit for bit.
func refHash(seed uint64, kind string, block ipv4.Block, round uint32) float64 {
	h := seed
	for i := 0; i < len(kind); i++ {
		h = h*1099511628211 + uint64(kind[i])
	}
	h ^= uint64(block) << 24
	h ^= uint64(round)
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return float64(h&0xfffffffffffff) / float64(1<<52)
}

// TestCoinKindsMatchStringHash pins every precomputed coin kind to the
// string fold it replaces, over random seeds, blocks and rounds.
func TestCoinKindsMatchStringHash(t *testing.T) {
	kinds := []struct {
		name string
		kind coinKind
	}{
		{"resp", kResp}, {"resp-churn", kRespChurn}, {"alias", kAlias},
		{"xalias", kXAlias}, {"late", kLate}, {"dup", kDup}, {"dupn", kDupN},
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		seed := r.Uint64()
		if i < 4 {
			seed = uint64(i) // small seeds, as the scenarios use
		}
		n := &Net{cfg: Config{Seed: seed}}
		block, round := ipv4.Block(r.Uint32()), r.Uint32()
		for _, k := range kinds {
			got, want := n.hash(k.kind, block, round), refHash(seed, k.name, block, round)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s seed=%d block=%v round=%d: hash %v, string fold %v", k.name, seed, block, round, got, want)
			}
		}
	}
}
