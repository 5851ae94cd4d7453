package dataplane

import (
	"testing"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/faults"
	"verfploeter/internal/hitlist"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/topology"
	"verfploeter/internal/vclock"
)

// TestOutcomeMatchesSendEcho: Outcome is SendEcho without side effects.
// For every block's hitlist representative, at the tiny and medium
// tiers, under every named fault profile, three attempts in a row (the
// ICMP rate limit spends across attempts) must each produce exactly the
// replies SendEcho hands a sink on a fresh fork — site, source, ident,
// seq, arrival — and exactly the counter deltas it adds to the fork.
// -short covers the tiny tier only.
func TestOutcomeMatchesSendEcho(t *testing.T) {
	src := measurementAddr()
	type reply struct {
		site       int
		from       ipv4.Addr
		ident, seq uint16
		at         time.Duration
	}
	sizes := []topology.Size{topology.SizeTiny, topology.SizeMedium}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, size := range sizes {
		top := topology.Generate(topology.DefaultParams(size, 5))
		n := New(Config{
			Top: top, Clock: vclock.New(), Seed: 5, Impair: DefaultImpairments(),
			AnycastPrefix: ipv4.MustParsePrefix(anycastPrefixStr),
		})
		n.SetAssignment(bgp.Compute(top, []bgp.Announcement{
			{Site: 0, UpstreamASN: top.ASes[0].ASN, Lat: 34, Lon: -118},
			{Site: 1, UpstreamASN: top.ASes[1].ASN, Lat: 26, Lon: -80},
			{Site: 2, UpstreamASN: top.ASes[2].ASN, Lat: 52, Lon: 5},
		}).Assign())
		// Site 2 has no capture point: its catchment's replies die.
		captures := func(site int) bool { return site < 2 }
		hl := hitlist.Build(top, 5)
		for _, p := range []faults.Profile{faults.None(), faults.Light(), faults.Moderate(), faults.Heavy(), faults.Extreme()} {
			p.Seed = 3
			n.SetFaults(p)
			var total Stats
			for i, e := range hl.Entries {
				clock := vclock.New()
				clock.Advance(time.Duration(i) * time.Millisecond)
				f := n.Fork(clock)
				f.SetTap(0, func([]byte) {})
				f.SetTap(1, func([]byte) {})
				var got []reply
				f.SetReplySink(func(site int, from ipv4.Addr, ident, seq uint16, at time.Duration) {
					got = append(got, reply{site, from, ident, seq, at})
				})
				bursts := 0
				for a := 0; a < 3; a++ {
					seq := uint16(i) + uint16(a)*0x9e37
					before := f.Stats()
					now := clock.Now()
					o := n.Outcome(1, src, e.Addr, seq, bursts, captures)
					got = got[:0]
					err := f.SendEcho(1, src, e.Addr, 7, seq)
					if err != o.Err {
						t.Fatalf("%v %v block %d attempt %d: SendEcho err %v, Outcome err %v", size, p, i, a, err, o.Err)
					}
					want := before
					want.Add(o.Stats)
					if f.Stats() != want {
						t.Fatalf("%v %v block %d attempt %d: stats %+v, Outcome says %+v", size, p, i, a, f.Stats(), want)
					}
					if len(got) != o.Copies {
						t.Fatalf("%v %v block %d attempt %d: %d replies, Outcome says %d", size, p, i, a, len(got), o.Copies)
					}
					for c, r := range got {
						if w := (reply{o.Site, o.From, 7, seq, now + o.Arrival(c)}); r != w {
							t.Fatalf("%v %v block %d attempt %d copy %d: reply %+v, Outcome says %+v", size, p, i, a, c, r, w)
						}
					}
					if o.Burst {
						bursts++
					}
					clock.Advance(time.Second)
				}
				total.Add(f.Stats())
			}
			// Every path of the gauntlet must have been taken.
			if total.Replies == 0 || total.Aliased == 0 || total.Duplicates == 0 || total.Unresponsive == 0 {
				t.Errorf("%v %v: impairment paths not exercised: %+v", size, p, total)
			}
			if p.Enabled() && (total.FaultProbeLost == 0 || total.FaultReplyLost == 0 || total.FaultSilenced == 0) {
				t.Errorf("%v %v: fault paths not exercised: %+v", size, p, total)
			}
			if p.RateLimit > 0 && p.RateLimit < 3 && total.FaultRateLimited == 0 {
				t.Errorf("%v %v: rate limit never hit: %+v", size, p, total)
			}
		}
	}
}
