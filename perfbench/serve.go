package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"diffuse/internal/serve"
	"diffuse/internal/serve/serveclient"
)

// The serve-mixed traffic: tenant A runs the dispatch-bound element-wise
// chain, tenant B the small stencil, one unix connection each. A
// connection carries one request at a time, so arrivals that fall due
// while the previous request is out wait on the client side: that wait is
// the backlog an open loop exposes.
var (
	tenantNames = [2]string{"a-chain", "b-stencil"}
	tenantReqs  = [2]serve.SubmitRequest{
		{Workload: "chain", N: 4096, Iters: 6},
		{Workload: "stencil", N: 64, Iters: 6},
	}
)

// Offered load, split evenly between the tenants as independent seeded
// arrival streams. serveRate is about half of what the two connections
// sustain on the 2-vCPU host the benchmark was defined on, or less: the
// backlog starts to grow between 450 and 600/s. In the traced run the
// fixed-rate phase is the ladder's first rung; the ladder is fixed in
// absolute rates, so a faster program climbs it further.
const (
	serveRate    = 200.0                 // submissions/s of the fixed-rate phase
	latencyLimit = 50 * time.Millisecond // p99 limit of a ladder rung
	warmupSubs   = 30                    // closed-loop submissions per tenant in set-up
	servers      = 5                     // servers per run, each running a share of the budget
	rungSamples  = 400                   // arrivals per ladder rung
)

var ladder = []float64{250, 300, 350, 400, 450, 500, 550, 600, 700, 800}

// served is one set-up serve front end with its two tenant connections.
type served struct {
	srv     *serve.Server
	done    chan error
	clients [2]*serveclient.Client
	tr      *tracer
}

// startServed starts an in-process diffuse-serve on a unix socket (in the
// process's temp directory), dials both tenants and warms both streams up
// (plan cache, program cache, window growth).
func startServed(traced bool, want [2]string) (*served, error) {
	srv, err := serve.New(serve.Config{Transport: "unix", Procs: launchPoints})
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, done: make(chan error, 1)}
	if traced {
		s.tr = installTracer(srv.Runtime())
	}
	go func() { s.done <- srv.Serve() }()
	for i := range s.clients {
		c, err := serveclient.Dial(srv.Transport(), srv.Addr(), tenantNames[i])
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients[i] = c
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < warmupSubs && errs[i] == nil; k++ {
				res, err := s.clients[i].Submit(tenantReqs[i])
				switch {
				case err != nil:
					errs[i] = err
				case res.Digest != want[i]:
					errs[i] = fmt.Errorf("warmup digest %s != oracle %s", res.Digest, want[i])
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, fmt.Errorf("serve warmup: %w", err)
	}
	return s, nil
}

// close disconnects the tenants, drains and stops the server, and waits
// for its accept loop to return.
func (s *served) close() error {
	for _, c := range s.clients {
		if c != nil {
			c.Close()
		}
	}
	err := s.srv.Close()
	return errors.Join(err, <-s.done)
}

// arrival is one scheduled submission and what became of it.
type arrival struct {
	tenant          int
	due, sent, done time.Duration // offsets from the phase start
	slept           bool          // the connection was free: the generator slept until due
	unsent          bool          // the phase ended before it could be sent
	err             error
}

// phase is one open-loop run at a fixed offered rate.
type phase struct {
	arrivals []arrival     // both tenants, in due order
	wall     time.Duration // phase start to the last reply
}

// schedule draws a seeded arrival stream of the given rate over dur:
// arrival k falls uniformly at random inside the k-th slot of width
// 1/rate. The stream is open-loop and differs per seed, without the
// clustering of a Poisson stream that makes a p99 swing run to run.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for k := 0; ; k++ {
		d := time.Duration((float64(k) + rng.Float64()) / rate * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// runPhase offers rate submissions/s for dur, split evenly across the
// tenants. Arrivals still unsent latencyLimit after dur are dropped as
// unsent: the phase is overloaded and their latency would miss the limit
// anyway.
func (s *served) runPhase(rng *rand.Rand, rate float64, dur time.Duration, want [2]string) phase {
	var sched [2][]time.Duration
	for i := range sched {
		sched[i] = schedule(rng, rate/2, dur)
	}
	var outs [2][]arrival
	start := time.Now()
	var wg sync.WaitGroup
	for i := range s.clients {
		outs[i] = make([]arrival, len(sched[i]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, due := range sched[i] {
				a := &outs[i][k]
				a.tenant, a.due = i, due
				now := time.Since(start)
				if now > dur+latencyLimit {
					a.unsent = true
					continue
				}
				if now < due {
					time.Sleep(due - now)
					a.slept = true
				}
				a.sent = time.Since(start)
				res, err := s.clients[i].Submit(tenantReqs[i])
				a.done = time.Since(start)
				switch {
				case err != nil:
					a.err = err
				case res.Digest != want[i]:
					a.err = fmt.Errorf("%s digest %s != oracle %s", tenantNames[i], res.Digest, want[i])
				}
			}
		}()
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	p.arrivals = append(outs[0], outs[1]...)
	sort.Slice(p.arrivals, func(i, j int) bool { return p.arrivals[i].due < p.arrivals[j].due })
	return p
}

// phaseStats summarizes one phase, or several pooled. Latency samples
// are kept per tenant: the two streams have different service times, and
// a median over their mixture lands between the two modes, where it
// swings run to run, so reported medians are the worse tenant's. Tail
// percentiles lie beyond both modes and pool both tenants, which doubles
// the samples beyond them.
type phaseStats struct {
	response [2][]float64 // due → reply, ms, completed submissions
	service  [2][]float64 // sent → reply, ms, completed submissions
	// limit holds due → reply for every arrival, a failed or unsent one
	// counting as infinitely late: its p99 is what the limit applies to.
	limit        [2][]float64
	genLate      []float64 // due → send, ms, where the generator slept until due
	sent, failed int64
	unsent       int64
	wall         time.Duration
	backlogged   bool // the last quarter of arrivals left, in median, later than the limit
	firstErr     error
}

func (p phase) stats() phaseStats {
	st := phaseStats{wall: p.wall}
	for _, a := range p.arrivals {
		switch {
		case a.unsent:
			st.unsent++
			st.limit[a.tenant] = append(st.limit[a.tenant], math.Inf(1))
			continue
		case a.err != nil:
			st.sent++
			st.failed++
			if st.firstErr == nil {
				st.firstErr = a.err
			}
			st.limit[a.tenant] = append(st.limit[a.tenant], math.Inf(1))
		default:
			st.sent++
			t := a.tenant
			st.response[t] = append(st.response[t], ms(a.done-a.due))
			st.service[t] = append(st.service[t], ms(a.done-a.sent))
			st.limit[t] = append(st.limit[t], ms(a.done-a.due))
		}
		if a.slept {
			st.genLate = append(st.genLate, ms(a.sent-a.due))
		}
	}
	var tail []float64
	if n := len(p.arrivals); n > 0 {
		last := p.arrivals[n-1].due
		for _, a := range p.arrivals {
			if a.due >= last*3/4 && !a.unsent {
				tail = append(tail, ms(a.sent-a.due))
			}
		}
	}
	st.backlogged = st.unsent > 0 || median(tail) > ms(latencyLimit)
	return st
}

// pool merges phases run at one rate on different instances.
func pool(sts []phaseStats) phaseStats {
	var m phaseStats
	for _, st := range sts {
		for t := range m.response {
			m.response[t] = append(m.response[t], st.response[t]...)
			m.service[t] = append(m.service[t], st.service[t]...)
			m.limit[t] = append(m.limit[t], st.limit[t]...)
		}
		m.genLate = append(m.genLate, st.genLate...)
		m.sent += st.sent
		m.failed += st.failed
		m.unsent += st.unsent
		m.wall += st.wall
		m.backlogged = m.backlogged || st.backlogged
		if m.firstErr == nil {
			m.firstErr = st.firstErr
		}
	}
	return m
}

func (st phaseStats) limitP99() float64 { return percentile(both(st.limit), 99).Value }

// worse returns the tenant whose median is larger.
func worse(perTenant [2][]float64) int {
	if median(perTenant[1]) > median(perTenant[0]) {
		return 1
	}
	return 0
}

// both returns the two tenants' samples as one slice.
func both(perTenant [2][]float64) []float64 {
	return append(append([]float64(nil), perTenant[0]...), perTenant[1]...)
}

// passes reports whether the phase met the latency limit without a
// growing backlog.
func (st phaseStats) passes() bool {
	return !st.backlogged && st.limitP99() <= ms(latencyLimit)
}

// maxRate is the highest offered rate meeting the latency limit without
// a growing backlog. Given the rungs climbed, in rising rate, up to and
// including the first failing one, it interpolates log p99 linearly in
// rate between the last passing rung and the failing one (p99 grows
// roughly exponentially towards saturation). A failing rung with an
// infinite p99 (a failed or unsent submission) gives the passing rung's
// rate.
func maxRate(rates []float64, stats []phaseStats) float64 {
	lim := ms(latencyLimit)
	prevRate, prevP99 := 0.0, 0.0
	for i, st := range stats {
		p99 := st.limitP99()
		if st.passes() {
			prevRate, prevP99 = rates[i], p99
			continue
		}
		if prevP99 <= 0 { // the first rung failed: scale it by the overshoot
			return rates[i] * math.Min(1, lim/p99)
		}
		if math.IsInf(p99, 1) || p99 <= lim {
			return prevRate
		}
		f := math.Log(lim/prevP99) / math.Log(p99/prevP99)
		return prevRate + f*(rates[i]-prevRate)
	}
	return prevRate
}

// oracleDigests runs each tenant's request on a fresh single-tenant
// runtime (serve.RunWorkloadLocal): the digests every reply must match.
func oracleDigests() ([2]string, error) {
	var want [2]string
	for i, req := range tenantReqs {
		res, err := serve.RunWorkloadLocal(launchPoints, req)
		if err != nil {
			return want, fmt.Errorf("oracle %s: %w", req.Workload, err)
		}
		want[i] = res.Digest
	}
	return want, nil
}

// runServeMixed is the run of the serve-mixed workload: each of the
// servers runs an equal share of the budget at the fixed rate. Latency
// percentiles are taken per server and the median across servers is
// reported, so a burst of host noise during one server's share moves it
// little.
func runServeMixed(o options) (*report, error) {
	want, err := oracleDigests()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	if o.trace {
		return traceServe(o, rng, want)
	}
	var setups []float64
	var phases []phaseStats
	var closeErrs []error
	for i := 0; i < servers; i++ {
		t0 := time.Now()
		s, err := startServed(false, want)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		phases = append(phases, s.runPhase(rng, serveRate, o.budget()/servers, want).stats())
		closeErrs = append(closeErrs, s.close())
	}
	rss := peakRSSMB()
	st := pool(phases)
	r := &report{attempted: st.sent, failed: st.failed}
	if st.firstErr != nil {
		fmt.Fprintf(o.log, "  failure: %v\n", st.firstErr)
	}
	if err := errors.Join(closeErrs...); err != nil {
		r.attempted++
		r.failed++
		fmt.Fprintf(o.log, "  failure: %v\n", err)
	}
	r.correct = r.failed == 0
	for t, name := range tenantNames {
		fmt.Fprintf(o.log, "  %-10s service p50 %.3f ms, response p99 %.3f ms\n", name,
			percentile(st.service[t], 50).Value, percentile(st.response[t], 99).Value)
	}
	n := len(both(st.service))
	// The tenants' service times differ; a median over their mixture
	// lands between the two modes, so medians are the worse tenant's.
	var svc, svcWorse, respWorse [][]float64
	for _, p := range phases {
		svc = append(svc, both(p.service))
		svcWorse = append(svcWorse, p.service[worse(p.service)])
		respWorse = append(respWorse, p.response[worse(p.response)])
	}
	r.quantile("iter_ms_p50", blockPercentile(svcWorse, 50))
	r.quantile("iter_ms_p90", blockPercentile(svc, 90))
	r.quantile("submit_ms_p50", blockPercentile(respWorse, 50))
	r.add("served_rps", "1/s", ratio(float64(n), st.wall.Seconds()), n, fmt.Sprintf("completed at %.0f/s offered", serveRate))
	r.add("setup_s", "s", median(setups), len(setups), "median of the set-ups")
	r.add("peak_rss_mb", "MB", rss, 1, "")
	p99, gl := percentile(both(st.response), 99), percentile(st.genLate, 99)
	fmt.Fprintf(o.log, "  submit p99 %.3f ms (n=%d, %d beyond); generator late p99 %.3f ms (n=%d); fail_ratio %.4f (%d of %d)\n",
		p99.Value, p99.N, p99.Beyond, gl.Value, gl.N, ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	return r, nil
}

// climb runs the ladder above a fixed-rate phase, whose stats are the
// first rung. Each rung offers rungSamples arrivals: enough to place a
// rung above or below the limit, fewer than a reported p99 needs. The
// climb stops after the first failing rung or when the next rung would
// overrun the budget left.
func (s *served) climb(rng *rand.Rand, left time.Duration, first phaseStats, want [2]string) ([]float64, []phaseStats) {
	rates, stats := []float64{serveRate}, []phaseStats{first}
	for _, rate := range ladder {
		dur := time.Duration(rungSamples / rate * float64(time.Second))
		if !stats[len(stats)-1].passes() || dur > left {
			break
		}
		left -= dur
		rates = append(rates, rate)
		stats = append(stats, s.runPhase(rng, rate, dur, want).stats())
	}
	return rates, stats
}

// Shares of the traced run's budget: the untraced server's fixed-rate
// phase and ladder, then the traced server's fixed-rate phase.
const (
	untracedShare = 0.25
	ladderShare   = 0.30
)

// traceServe is the traced run. An untraced server runs the fixed-rate
// phase and climbs the ladder (the open-loop tail metrics); a traced
// server runs the fixed-rate phase for the per-layer split. Every reply
// of both is checked against the oracle digests.
func traceServe(o options, rng *rand.Rand, want [2]string) (*report, error) {
	budget := o.budget()
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	r := &report{}
	count := func(st phaseStats) {
		r.attempted += st.sent
		r.failed += st.failed
		if st.firstErr != nil {
			fmt.Fprintf(o.log, "  failure: %v\n", st.firstErr)
		}
	}
	closeOK := func(s *served) {
		if err := s.close(); err != nil {
			r.attempted++
			r.failed++
			fmt.Fprintf(o.log, "  failure: %v\n", err)
		}
	}

	s, err := startServed(false, want)
	if err != nil {
		return nil, err
	}
	untraced := s.runPhase(rng, serveRate, share(untracedShare), want).stats()
	rates, rungs := s.climb(rng, share(ladderShare), untraced, want)
	closeOK(s)
	for i, st := range rungs {
		count(st)
		fmt.Fprintf(o.log, "  rung %4.0f/s: p99 %.2f ms over %d (unsent %d, failed %d, backlog %v)\n",
			rates[i], st.limitP99(), len(both(st.limit)), st.unsent, st.failed, st.backlogged)
	}

	if s, err = startServed(true, want); err != nil {
		return nil, err
	}
	c0, l0 := readCounts(s.srv.Runtime(), s.tr), s.tr.snapshot()
	p := s.runPhase(rng, serveRate, budget-share(untracedShare+ladderShare), want)
	l := s.tr.snapshot().Sub(l0)
	c := readCounts(s.srv.Runtime(), s.tr).sub(c0)
	snap, err := s.clients[0].Stats()
	if err != nil {
		closeOK(s)
		return nil, fmt.Errorf("stats op: %w", err)
	}
	traced := p.stats()
	count(traced)
	// Service times in due order, for the sum and the drift.
	var svc []float64
	var svcSum float64
	for _, a := range p.arrivals {
		if !a.unsent && a.err == nil {
			svc = append(svc, ms(a.done-a.sent))
			svcSum += ms(a.done - a.sent)
		}
	}
	rej, bat, plan := serveShares(snap)
	r.layerMetrics(layerInput{
		rt: s.srv.Runtime(), tr: s.tr, iters: float64(len(svc)),
		wall:   time.Duration(svcSum * float64(time.Millisecond)),
		layers: l, counts: c,
		overhead: ratio(median(traced.service[worse(traced.service)]), median(untraced.service[worse(untraced.service)])),
		drift:    tenthsDrift(svc),
		serve: &serveLayers{
			legionBusy: ratio(ms(l.Legion()), ms(p.wall)),
			rejected:   rej, batched: bat, planHits: plan,
			genLateP99: percentile(traced.genLate, 99).Value,
			submitP99:  percentile(both(untraced.response), 99),
			maxRate:    maxRate(rates, rungs),
			rungs:      len(rungs),
		},
	})
	closeOK(s)
	r.correct = r.failed == 0
	fmt.Fprintf(o.log, "  every untraced and traced reply matched the oracle digests: %v\n", r.correct)
	return r, nil
}
