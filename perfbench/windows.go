package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/legion"
)

// Every workload launches tasks over this many points (core.DefaultConfig).
const launchPoints = 8

// Chain workload size: the operator pair D, L is 2 × chainN × chainBlock
// f64 = 64 MB, inside the host's last-level cache (see NOTES.md).
const (
	chainN     = 32768
	chainBlock = 128
	chainDepth = 16
	sweGrid    = 16
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and only the last set-up is measured.
const setupReps = 3

// app is one window-based workload on one runtime. A window restores the
// seeded inputs (untimed, completed before the clock starts), submits one
// iteration, flushes, and ends with a forced scalar read: the read is the
// completion point, so a distributed window includes every rank's work.
type app struct {
	ctx   *cunum.Context
	reset func()              // restore the seeded inputs and wait for them
	step  func()              // submit one iteration
	probe func() *cunum.Array // the scalar the closing read returns
	state func() []float64    // the full output state, for the oracle check
}

// windowSample is one timed window.
type windowSample struct {
	total  time.Duration // window start to the forced read's return
	submit time.Duration // window start to Flush's return
	value  float64       // the forced read's value
	ok     bool          // the forced read reported real data
	layers layerTimes    // time inside legion calls (traced runs)
	counts counts        // counter deltas (traced runs)
}

// window runs one timed window. With a tracer it also records the time
// spent inside legion calls and the counter deltas of the window.
func (a *app) window(tr *tracer) windowSample {
	a.reset()
	var c0 counts
	if tr != nil {
		c0 = readCounts(a.ctx.Runtime(), tr)
	}
	l0 := tr.snapshot()
	t0 := time.Now()
	a.step()
	a.ctx.Flush()
	submit := time.Since(t0)
	v, ok := a.probe().Future().ValueOK()
	w := windowSample{total: time.Since(t0), submit: submit, value: v, ok: ok}
	w.layers = tr.snapshot().Sub(l0)
	if tr != nil {
		w.counts = readCounts(a.ctx.Runtime(), tr).sub(c0)
	}
	return w
}

// windowSpec defines a window-based workload.
type windowSpec struct {
	config func() core.Config
	build  func(ctx *cunum.Context, seed int64) *app
	warmup int // untimed windows after the build: window growth, memo, JIT
}

// runConfig is the default configuration with the given shard and rank
// counts (0 for in-process, unsharded).
func runConfig(shards, ranks int) func() core.Config {
	return func() core.Config {
		cfg := core.DefaultConfig(launchPoints)
		cfg.Shards = shards
		cfg.Ranks = ranks
		if ranks > 1 {
			cfg.Transport = "unix"
		}
		return cfg
	}
}

var (
	sweSmall = windowSpec{config: runConfig(0, 0), build: buildSWE, warmup: 40}
	// chainShards2 and chainRanks2 differ only in the dist layer.
	chainShards2 = windowSpec{config: runConfig(2, 0), build: chainBuilder(chainN, chainBlock, chainDepth), warmup: 2}
	chainRanks2  = windowSpec{config: runConfig(2, 2), build: chainBuilder(chainN, chainBlock, chainDepth), warmup: 2}
)

// oracleConfig is the reference configuration: fusion off, the register
// interpreter, one shard, in-process.
func oracleConfig() core.Config {
	cfg := core.DefaultConfig(launchPoints)
	cfg.Enabled = false
	cfg.Codegen = legion.CodegenOff
	return cfg
}

// chainBuilder builds the upwind Stencil-Chain with a seeded live state.
// Each window refills the live rows from that state: without the refill
// the state decays into subnormal floats within ~40 chains and every
// later window measures subnormal arithmetic instead of the chain.
func chainBuilder(n, t, depth int) func(*cunum.Context, int64) *app {
	return func(ctx *cunum.Context, seed int64) *app {
		sc := apps.NewStencilChain(ctx, n, t, depth, apps.ChainUpwind, cunum.F64)
		rng := rand.New(rand.NewSource(seed))
		host := make([]float64, n+t) // the leading pad block stays zero
		for i := t; i < n+t; i++ {
			host[i] = 0.5 + rng.Float64()
		}
		x0 := ctx.EmptyT(cunum.F64, n+t).Keep()
		x0.FromHost(host)
		live := func(x *cunum.Array) *cunum.Array { return x.Slice([]int{t}, []int{t + n}).Temp() }
		return &app{
			ctx: ctx,
			reset: func() {
				cunum.ApplyOpInto("copy", live(sc.X), []*cunum.Array{live(x0)})
				ctx.Flush()
				// A read is a round trip that every rank has drained
				// before: the refill is complete when the clock starts.
				sc.X.GetOK(t)
			},
			step:  sc.Step,
			probe: func() *cunum.Array { return live(sc.X).Sum() },
			state: func() []float64 { return live(sc.X).ToHost() },
		}
	}
}

// buildSWE builds the 16×16 SWE basin with a seeded depth field; each
// window restarts from it.
func buildSWE(ctx *cunum.Context, seed int64) *app {
	s := apps.NewSWE(ctx, sweGrid, sweGrid, false)
	rng := rand.New(rand.NewSource(seed))
	h0 := make([]float64, sweGrid*sweGrid)
	for i := range h0 {
		h0[i] = 1 + 0.1*rng.Float64()
	}
	zero := make([]float64, len(h0))
	return &app{
		ctx: ctx,
		reset: func() {
			s.H.FromHost(h0)
			s.HU.FromHost(zero)
			s.HV.FromHost(zero)
		},
		step:  s.Step,
		probe: func() *cunum.Array { return s.H.Sum() },
		state: func() []float64 {
			out := s.H.ToHost()
			out = append(out, s.HU.ToHost()...)
			return append(out, s.HV.ToHost()...)
		},
	}
}

// instance is a set-up workload: its runtime, app and optional tracer.
type instance struct {
	rt  *core.Runtime
	app *app
	tr  *tracer
}

// setUp creates the runtime (launching ranks), builds the seeded inputs
// and runs the warmup windows; it returns the instance and the time that
// took.
func setUp(spec windowSpec, seed int64, traced bool) (*instance, time.Duration) {
	t0 := time.Now()
	rt := core.New(spec.config())
	in := &instance{rt: rt}
	if traced {
		in.tr = installTracer(rt)
	}
	in.app = spec.build(cunum.NewContext(rt), seed)
	for i := 0; i < spec.warmup; i++ {
		in.app.window(nil)
	}
	return in, time.Since(t0)
}

// close shuts the instance's runtime down and returns its memory to the
// OS, so the next set-up's peak RSS does not stack on this one's.
func (in *instance) close() error {
	err := in.rt.Close()
	in.rt, in.app, in.tr = nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	return err
}

// pass is the outcome of measuring windows on one instance.
type pass struct {
	windows []windowSample
	state   []float64 // output state after the last window
	err     error     // a recovered panic that ended the pass
}

// measure runs windows until the time budget is spent, then reads the
// final state. A panic ends the pass and is reported as its error.
func (in *instance) measure(budget time.Duration) (p pass) {
	defer func() {
		if r := recover(); r != nil {
			p.err = fmt.Errorf("panic: %v", r)
		}
	}()
	end := time.Now().Add(budget)
	for time.Now().Before(end) {
		p.windows = append(p.windows, in.app.window(in.tr))
	}
	p.state = in.app.state()
	return p
}

// oracleRun runs one window of the workload under the oracle
// configuration and returns its read value and output state.
func oracleRun(spec windowSpec, seed int64) (float64, []float64, error) {
	rt := core.New(oracleConfig())
	defer rt.Close()
	a := spec.build(cunum.NewContext(rt), seed)
	w := a.window(nil)
	if !w.ok {
		return 0, nil, fmt.Errorf("oracle read returned no data")
	}
	return w.value, a.state(), nil
}

// check counts the windows of p that disagree with the oracle (a read
// without data, or a value whose bits differ) and reports whether the
// final state is bit-identical to the oracle's.
func (p pass) check(want float64, wantState []float64) (bad int64, stateOK bool) {
	for _, w := range p.windows {
		if !w.ok || math.Float64bits(w.value) != math.Float64bits(want) {
			bad++
		}
	}
	return bad, p.err == nil && digest(p.state) == digest(wantState)
}

// runWindowed is the run of a window-based workload. Each of the
// setupReps set-ups is measured for an equal share of the budget; the
// percentiles combine the set-ups as blockPercentile describes.
func runWindowed(spec windowSpec) runFunc {
	return func(o options) (*report, error) {
		if o.trace {
			return traceWindowed(spec, o)
		}
		var setups []float64
		var passes []pass
		for i := 0; i < setupReps; i++ {
			in, d := setUp(spec, o.seed, false)
			setups = append(setups, d.Seconds())
			p := in.measure(o.budget() / setupReps)
			if err := in.close(); err != nil && p.err == nil {
				p.err = fmt.Errorf("closing: %w", err)
			}
			passes = append(passes, p)
		}
		rss := peakRSSMB()
		if spec.config().Ranks > 1 {
			ranks := childrenPeakRSSMB()
			fmt.Fprintf(o.log, "  peak RSS: parent %.1f MB, largest rank %.1f MB\n", rss, ranks)
			rss += ranks
		}
		r, err := tally(spec, o, passes)
		if err != nil {
			return nil, err
		}
		var total, submit [][]float64
		var rps, all []float64
		for _, p := range passes {
			var tot, sub []float64
			var wall time.Duration
			for _, w := range p.windows {
				tot = append(tot, ms(w.total))
				sub = append(sub, ms(w.submit))
				wall += w.total
			}
			total, submit = append(total, tot), append(submit, sub)
			rps = append(rps, ratio(float64(len(tot)), wall.Seconds()))
			all = append(all, tot...)
		}
		p50 := blockPercentile(total, 50)
		r.quantile("iter_ms_p50", p50)
		r.quantile("iter_ms_p90", blockPercentile(total, 90))
		// A closed loop submits an iteration when the previous one has
		// completed, so it falls due as its window starts: due → result
		// is the window time. Flush's return, which on ranks is the
		// parent's send time alone, is printed for reference.
		r.quantile("submit_ms_p50", p50)
		fmt.Fprintf(o.log, "  window start to Flush return, p50: %.3f ms\n", blockPercentile(submit, 50).Value)
		r.add("served_rps", "1/s", median(rps), len(all), "iterations per second of window time, median across set-ups")
		r.add("setup_s", "s", median(setups), len(setups), "median of the set-ups")
		r.add("peak_rss_mb", "MB", rss, 1, "")
		fmt.Fprintf(o.log, "  last-tenth / first-tenth window median: %.4f\n", tenthsDrift(all))
		return r, nil
	}
}

// tally checks every pass against the oracle and counts attempts and
// failures: a window whose read has no data or differs from the oracle,
// a pass ended by a panic, or a final state that is not bit-identical.
func tally(spec windowSpec, o options, passes []pass) (*report, error) {
	want, wantState, err := oracleRun(spec, o.seed)
	if err != nil {
		return nil, err
	}
	r := &report{correct: true}
	for i, p := range passes {
		bad, stateOK := p.check(want, wantState)
		r.attempted += int64(len(p.windows))
		r.failed += bad
		if p.err != nil {
			r.attempted++
			r.failed++
			fmt.Fprintf(o.log, "  pass %d failed: %v\n", i, p.err)
		}
		r.correct = r.correct && stateOK
		fmt.Fprintf(o.log, "  pass %d: %d windows, output digest %s (oracle %s)\n", i, len(p.windows), digest(p.state), digest(wantState))
	}
	r.correct = r.correct && r.failed == 0
	fmt.Fprintf(o.log, "  fail_ratio %.4f (%d of %d)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	return r, nil
}

// traceWindowed is the traced run: an untraced pass and a traced pass of
// half the budget each, on fresh instances, both checked against the
// oracle; the per-layer split comes from the traced pass.
func traceWindowed(spec windowSpec, o options) (*report, error) {
	var passes []pass
	var traced *instance
	for i := 0; i < 2; i++ {
		in, _ := setUp(spec, o.seed, i == 1)
		passes = append(passes, in.measure(o.budget()/2))
		if i == 1 {
			traced = in // closed after its cumulative counters are read
		} else if err := in.close(); err != nil {
			return nil, fmt.Errorf("closing the untraced pass: %w", err)
		}
	}
	r, err := tally(spec, o, passes)
	if err != nil {
		return nil, err
	}
	same := digest(passes[0].state) == digest(passes[1].state)
	fmt.Fprintf(o.log, "  traced digest equals untraced digest: %v\n", same)
	r.correct = r.correct && same

	var untraced, wall []float64
	for _, w := range passes[0].windows {
		untraced = append(untraced, ms(w.total))
	}
	var layers layerTimes
	var cnt counts
	var wallSum time.Duration
	for _, w := range passes[1].windows {
		wall = append(wall, ms(w.total))
		wallSum += w.total
		layers = layers.Add(w.layers)
		cnt = cnt.add(w.counts)
	}
	r.layerMetrics(layerInput{
		rt: traced.rt, tr: traced.tr, iters: float64(len(passes[1].windows)),
		wall: wallSum, layers: layers, counts: cnt,
		distributed: spec.config().Ranks > 1,
		overhead:    ratio(median(wall), median(untraced)),
		drift:       tenthsDrift(untraced),
	})
	if err := traced.close(); err != nil {
		return nil, fmt.Errorf("closing the traced pass: %w", err)
	}
	return r, nil
}
