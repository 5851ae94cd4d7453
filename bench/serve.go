package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/querylog"
	"verfploeter/internal/rng"
)

// Request kinds of the client mix: 97 % lookups, 2 % site tables, 1 %
// drift polls — a resolver-facing service with an occasional dashboard.
const (
	kindLookup = iota
	kindSites
	kindDrift
	nKinds
)

var kindName = [nKinds]string{"lookup", "sites", "drift"}

type request struct {
	kind int
	url  string
	addr ipv4.Addr // lookups only
}

// addressStream draws n client addresses with each block's probability
// proportional to its queries per day in the log, so a few resolver
// blocks take most lookups and the long tail is touched rarely. About
// half the log's blocks never answer probes and are therefore unmapped:
// the stream exercises the miss path too.
func addressStream(log *querylog.Log, src *rng.Source, n int) []ipv4.Addr {
	cum := make([]float64, len(log.Blocks))
	total := 0.0
	for i := range log.Blocks {
		total += log.Blocks[i].QueriesPerDay
		cum[i] = total
	}
	out := make([]ipv4.Addr, n)
	for i := range out {
		x := src.Float64() * total
		j := sort.SearchFloat64s(cum, x)
		if j >= len(cum) {
			j = len(cum) - 1
		}
		out[i] = log.Blocks[j].Block.Addr(uint8(src.Intn(256)))
	}
	return out
}

// buildRequests generates the run's request sequence from the seed; the
// program under test only ever sees the resulting URLs.
func buildRequests(base string, log *querylog.Log, seed uint64, n int) []request {
	src := rng.New(seed).Derive("bench-requests")
	addrs := addressStream(log, src.Derive("addresses"), n)
	prefix := base + "/v1/tenants/" + tenantName
	reqs := make([]request, n)
	for i := range reqs {
		switch x := src.Float64(); {
		case x < 0.97:
			reqs[i] = request{kind: kindLookup, addr: addrs[i], url: prefix + "/lookup?ip=" + addrs[i].String()}
		case x < 0.99:
			reqs[i] = request{kind: kindSites, url: prefix + "/sites"}
		default:
			reqs[i] = request{kind: kindDrift, url: fmt.Sprintf("%s/drift?since=%d", prefix, src.Intn(warmEpochs+1))}
		}
	}
	return reqs
}

// openLoop issues n operations on a fixed schedule — operation i is due
// at start + i/rate — from at most workers goroutines. A free worker
// takes the next due operation; when all are busy the schedule does not
// wait, so a stall shows up as lateness on the operations behind it.
// send performs operation i; latency is timed from the operation's due
// time to send's return, and late is how long after its due time it was
// actually sent. after runs once latency has been stamped.
func openLoop(n int, rate float64, workers int, send, after func(worker, i int)) (latency, late []time.Duration) {
	latency = make([]time.Duration, n)
	late = make([]time.Duration, n)
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				waitUntil(due)
				if d := time.Since(due); d > 0 {
					late[i] = d
				}
				send(w, i)
				latency[i] = time.Since(due)
				after(w, i)
			}
		}(w)
	}
	wg.Wait()
	return latency, late
}

// waitUntil sleeps through most of the wait and yields through the last
// stretch: the kernel's timer slack would otherwise make every send
// tens of microseconds late, and that lateness is counted as latency.
func waitUntil(due time.Time) {
	const spin = 150 * time.Microsecond
	if d := time.Until(due); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// closedLoop keeps workers clients busy until the deadline: each sends
// its next operation as soon as the previous one completes. Worker w
// performs operations w, w+workers, ...; perWorker[w] lists their
// latencies (send to return) in order.
func closedLoop(d time.Duration, workers int, send, after func(worker, i int)) (perWorker [][]time.Duration) {
	perWorker = make([][]time.Duration, workers)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += workers {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				send(w, i)
				perWorker[w] = append(perWorker[w], time.Since(t0))
				after(w, i)
			}
		}(w)
	}
	wg.Wait()
	return perWorker
}

// Response bodies, as the API documents them.
type lookupBody struct {
	Tenant    string `json:"tenant"`
	Epoch     int    `json:"epoch"`
	IP        string `json:"ip"`
	Mapped    bool   `json:"mapped"`
	Site      string `json:"site"`
	SiteIndex int    `json:"site_index"`
	RTTNS     int64  `json:"rtt_ns"`
	ASN       uint32 `json:"asn"`
	Country   string `json:"country"`
}

type sitesBody struct {
	Tenant string `json:"tenant"`
	Epoch  int    `json:"epoch"`
	Sites  []struct {
		Code   string `json:"code"`
		Blocks int    `json:"blocks"`
	} `json:"sites"`
}

type driftBody struct {
	Tenant string `json:"tenant"`
	Events []struct {
		Epoch int    `json:"epoch"`
		Type  string `json:"type"`
	} `json:"events"`
}

// httpWorker is one keep-alive client's state between send and after.
type httpWorker struct {
	body   bytes.Buffer
	status int
	err    error
	newest int // newest published epoch when the request was sent
	checks
	stale     int // responses older than newest
	okLookups int
}

// load drives one tenant's HTTP API with the generated request sequence
// and checks every response. It lives for the whole run; the phases use
// it one slice at a time.
type load struct {
	sr      *serveRig
	reqs    []request
	client  *http.Client
	workers []httpWorker
	tr      *tracer
	root    int // span of the slice in progress
	sent    int // requests issued by earlier slices
}

func newLoad(sr *serveRig, seed uint64, workers int, tr *tracer) *load {
	l := &load{
		sr: sr, tr: tr, root: -1,
		reqs:    buildRequests(sr.base, sr.w.log, seed, requestsPerRun),
		workers: make([]httpWorker, workers),
		// Exactly `workers` keep-alive connections, no more.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: workers, MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers,
			DisableCompression: true,
		}},
	}
	// One request per connection before any clock starts, so TCP set-up
	// is in no sample.
	for w := 0; w < workers; w++ {
		l.send(w, w)
		l.after(w, w)
	}
	l.sent = workers
	return l
}

// finish returns every check the workers made.
func (l *load) finish() checks {
	var c checks
	for i := range l.workers {
		c.add(l.workers[i].checks)
	}
	return c
}

func (l *load) okLookups() int {
	n := 0
	for i := range l.workers {
		n += l.workers[i].okLookups
	}
	return n
}

func (l *load) req(i int) *request { return &l.reqs[i%len(l.reqs)] }

// send performs request i up to the last byte of the body.
func (l *load) send(w, i int) {
	hw, rq := &l.workers[w], l.req(i)
	hw.newest = l.sr.newest()
	sp := l.tr.begin("http."+kindName[rq.kind], i, l.root)
	hw.body.Reset()
	hw.status = 0
	resp, err := l.client.Get(rq.url)
	if err == nil {
		hw.status = resp.StatusCode
		_, err = io.Copy(&hw.body, resp.Body)
		resp.Body.Close()
	}
	hw.err = err
	l.tr.end(sp)
}

// after checks the response send left behind: transport, status, that
// the body decodes, and for one lookup in 64 that it says exactly what
// the snapshot of the epoch it names says.
func (l *load) after(w, i int) {
	hw, rq := &l.workers[w], l.req(i)
	if hw.err != nil || hw.status != http.StatusOK {
		hw.ok(false, "%s: status %d, err %v", rq.url, hw.status, hw.err)
		return
	}
	switch rq.kind {
	case kindLookup:
		var b lookupBody
		err := json.Unmarshal(hw.body.Bytes(), &b)
		hw.ok(err == nil && b.Tenant == tenantName && b.IP == rq.addr.String(), "%s: bad body %q (%v)", rq.url, hw.body.Bytes(), err)
		if err != nil {
			return
		}
		hw.okLookups++
		if b.Epoch < hw.newest {
			hw.stale++
		}
		if i%64 == 0 {
			sn := l.sr.snapshot(b.Epoch)
			if sn == nil {
				hw.ok(false, "%s: response names epoch %d, never published", rq.url, b.Epoch)
				return
			}
			want, mapped := sn.Lookup(rq.addr)
			same := b.Mapped == mapped && b.SiteIndex == want.Site
			if mapped {
				same = same && b.Site == want.SiteCode && b.RTTNS == int64(want.RTT) &&
					b.ASN == want.ASN && b.Country == want.Country
			}
			hw.ok(same, "%s: got %+v, snapshot of epoch %d says %+v mapped=%v", rq.url, b, b.Epoch, want, mapped)
		}
	case kindSites:
		var b sitesBody
		err := json.Unmarshal(hw.body.Bytes(), &b)
		hw.ok(err == nil && b.Tenant == tenantName && len(b.Sites) == len(l.sr.w.scn.Sites), "%s: bad body %q (%v)", rq.url, hw.body.Bytes(), err)
	case kindDrift:
		var b driftBody
		err := json.Unmarshal(hw.body.Bytes(), &b)
		hw.ok(err == nil && b.Tenant == tenantName && b.Events != nil, "%s: bad body %q (%v)", rq.url, hw.body.Bytes(), err)
	}
}

// serveOut is one serving phase's measurements over all its slices.
// byKind holds every request's latency in microseconds; the slice*
// fields hold one value per slice.
type serveOut struct {
	checks
	byKind     [nKinds][]float64
	sliceP99US []float64 // p99 of the slice's lookup latencies
	sliceRPS   []float64 // 200-OK lookups per second of the slice

	// Open loop only.
	lateUS      []float64
	achievedRPS []float64 // per slice
	advanceMS   []float64
}

func (o *serveOut) fileSlice(lookupsUS []float64, okLookups int, elapsed time.Duration) {
	o.sliceP99US = append(o.sliceP99US, percentile(sortedCopy(lookupsUS), 99))
	o.sliceRPS = append(o.sliceRPS, float64(okLookups)/elapsed.Seconds())
}

func (l *load) stale() int {
	n := 0
	for i := range l.workers {
		n += l.workers[i].stale
	}
	return n
}

// requestsPerRun is the length of the generated request sequence; loops
// that outlast it wrap around.
const requestsPerRun = 1 << 16

// runQuiet measures read capacity for one slice of secs seconds: a
// closed loop of one client per worker, no writer. Closed because each
// client is a caller waiting for its reply, and because the quantity
// wanted is how much the path can carry.
func runQuiet(l *load, out *serveOut, secs float64, slice int) {
	workers := len(l.workers)
	base, ok0 := l.sent, l.okLookups()
	l.root = l.tr.begin("serve.quiet", slice, -1)
	start := time.Now()
	perWorker := closedLoop(time.Duration(secs*float64(time.Second)), workers,
		func(w, i int) { l.send(w, base+i) },
		func(w, i int) { l.after(w, base+i) })
	elapsed := time.Since(start)
	l.tr.end(l.root)

	// Worker w performed requests base+w, base+w+workers, ...: file each
	// latency under its request's kind. A failed request keeps its place
	// in the distribution; it is counted in failed and fails the run.
	var lookups []float64
	for w, lats := range perWorker {
		for k, d := range lats {
			kind := l.req(base + w + k*workers).kind
			out.byKind[kind] = append(out.byKind[kind], us(d))
			if kind == kindLookup {
				lookups = append(lookups, us(d))
			}
			l.sent++
		}
	}
	out.fileSlice(lookups, l.okLookups()-ok0, elapsed)
}

// runChurn measures reads beside writes for one slice: an open loop at
// a fixed rate — independent resolvers do not slow down because the
// service did — while the tenant advances an epoch every advanceEvery.
func runChurn(l *load, out *serveOut, p profile, secs float64, slice int) error {
	workers := len(l.workers)
	base, ok0 := l.sent, l.okLookups()
	l.root = l.tr.begin("serve.churn", slice, -1)

	stop := make(chan struct{})
	advanced := make(chan error, 1) // the advancer's single result
	go func() {
		tk := time.NewTicker(p.advanceEvery)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				advanced <- nil
				return
			case <-tk.C:
				sp := l.tr.begin("server.Tenant.Advance", l.sr.newest()+1, l.root)
				t0 := time.Now()
				_, err := l.sr.advance()
				out.advanceMS = append(out.advanceMS, ms(time.Since(t0)))
				l.tr.end(sp)
				if err != nil {
					advanced <- err
					return
				}
			}
		}
	}()

	n := int(p.churnRate * secs)
	start := time.Now()
	latency, late := openLoop(n, p.churnRate, workers,
		func(w, i int) { l.send(w, base+i) },
		func(w, i int) { l.after(w, base+i) })
	elapsed := time.Since(start)
	close(stop)
	err := <-advanced // also orders the advancer's appends before our reads
	l.tr.end(l.root)
	l.sent += n
	if err != nil {
		return fmt.Errorf("advance under load: %w", err)
	}

	var lookups []float64
	for i, d := range latency {
		kind := l.req(base + i).kind
		out.byKind[kind] = append(out.byKind[kind], us(d))
		if kind == kindLookup {
			lookups = append(lookups, us(d))
		}
		out.lateUS = append(out.lateUS, us(late[i]))
	}
	out.fileSlice(lookups, l.okLookups()-ok0, elapsed)
	out.achievedRPS = append(out.achievedRPS, float64(n)/elapsed.Seconds())
	return nil
}
