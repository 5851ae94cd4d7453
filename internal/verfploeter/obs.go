package verfploeter

import (
	"verfploeter/internal/dataplane"
	"verfploeter/internal/obsv"
)

// publishRound feeds one finished round's totals into the registry: the
// sweep's probe/reply accounting plus the chunk forks' merged dataplane
// counters, fault injections included. It runs once per Run, after the
// deterministic work is done, from numbers the round already accumulated
// — instrumentation never adds per-probe cost, which is how the disabled
// path stays byte-identical and zero-alloc.
func publishRound(r *obsv.Registry, st Stats, net *dataplane.Stats) {
	if r == nil {
		return
	}
	r.Counter("probes_sent", "probes sent, initial sweep plus retries").AddInt(st.Sent)
	r.Counter("probes_retried", "retransmissions under the loss-aware retry budget").AddInt(st.Retried)
	r.Counter("probe_send_errors", "probes the data plane refused to route").AddInt(st.SendErrs)
	r.Counter("sweep_targets", "hitlist targets probed").AddInt(st.Targets)
	r.Counter("blocks_mapped", "blocks folded into catchments").AddInt(st.Responded)
	r.Counter("replies_total", "captured replies before cleaning").AddInt(st.Clean.Total)
	r.Counter("replies_kept", "replies surviving the cleaning pass").AddInt(st.Clean.Kept)
	r.Counter("replies_duplicate", "replies dropped as duplicates").AddInt(st.Clean.Duplicates)
	r.Counter("replies_late", "replies dropped past the cutoff").AddInt(st.Clean.Late)
	r.Counter("replies_unsolicited", "replies from addresses never probed").AddInt(st.Clean.Unsolicited)
	r.Counter("replies_wrong_round", "replies carrying another round's ident").AddInt(st.Clean.WrongRound)
	net.PublishObs(r)
}
