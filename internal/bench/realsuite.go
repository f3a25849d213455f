package bench

// The real-mode macrobenchmark suite behind BENCH_real.json: actual
// wall-clock executions of CG, Jacobi, Black-Scholes, SWE, Jacobi-MRHS,
// the deep stencil chain, and the multi-tenant service mode at several
// problem sizes. Every engine case is measured fused and unfused,
// interleaved; a case may also name an earlier row as its baseline — the
// same workload with one configuration delta undone — and records its
// speedup over it. The committed JSON is the performance trajectory later
// PRs are judged against; its absolute numbers are machine-dependent, the
// ratios much less so. See docs/BENCHMARKS.md.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
	"diffuse/internal/serve"
)

// RealSchema versions the BENCH_real.json layout; bump it when fields
// change so the CI schema gate fails loudly instead of silently drifting.
// v2–v8 added, one per revision, the dtype, shards, wavefront, ranks,
// codegen, feedback, and tenants columns, each with its own twin-row
// ratio. v9 replaced the per-point executor columns and those seven
// ratios with one generic axis: a variant column, a baseline key with
// its speedup_vs_baseline ratio, and the fused-vs-unfused fusion_speedup;
// every timed window now ends at a forced read.
const RealSchema = "diffuse-bench-real/v9"

// RealResult is one measured row of the real-mode suite.
type RealResult struct {
	App    string `json:"app"`
	Size   string `json:"size"`
	N      int    `json:"n"`      // problem parameter (rows, grid side, options)
	Procs  int    `json:"procs"`  // launch width: point tasks per index task
	Shards int    `json:"shards"` // sharded-execution block count (1 = off)
	// Ranks reports multi-process distributed execution: the row ran as
	// this many rank subprocesses (core.Config.Ranks, which forces Shards
	// equal). 0 = in-process.
	Ranks int `json:"ranks"`
	// Tenants reports multi-tenant service-mode rows: this many concurrent
	// tenants submitted identical workload streams to one in-process
	// diffuse-serve front end (iters is then streams per tenant, and
	// ns_per_iter is ns per stream). 0 = not a serve row.
	Tenants int `json:"tenants"`
	// Variant names the configuration switch the row ran with (a
	// realVariants key): "default", or one bit-identical oracle path.
	Variant string `json:"variant"`
	DType   string `json:"dtype"` // element type of the app's arrays (f64/f32)
	Fused   bool   `json:"fused"` // Diffuse fusion enabled
	Iters   int    `json:"iters"` // timed iterations

	NsPerIter float64 `json:"ns_per_iter"`
	// FusionSpeedup (fused engine rows only) is the unfused row's ns/iter
	// over this row's, the two measured interleaved within every rep of
	// one case: the wall-clock value of fusion, >1 when fusing wins.
	FusionSpeedup float64 `json:"fusion_speedup,omitempty"`
	// Baseline is the key of the earlier row (same fused setting) this
	// row is measured against, and SpeedupVsBaseline that row's ns/iter
	// over this row's: >1 when this row's configuration delta wins.
	Baseline          string  `json:"baseline,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`

	// StreamsPerSec (serve rows only) is the aggregate submission
	// throughput across all tenants of the row.
	StreamsPerSec float64 `json:"streams_per_sec,omitempty"`
	// ServePlanCacheHits / ServePlanCacheMisses (serve rows only) aggregate
	// the per-tenant shared-compiled-plan-cache counters over the row's run
	// (warmup included). Hits > 0 on a multi-tenant row is the measured
	// proof that identical streams from different tenants share plans.
	ServePlanCacheHits   int64 `json:"serve_plan_cache_hits,omitempty"`
	ServePlanCacheMisses int64 `json:"serve_plan_cache_misses,omitempty"`

	TasksPerIter float64 `json:"tasks_per_iter"` // index tasks reaching legion
	// FusionRatio is the fraction of submitted tasks folded into fusions
	// during the timed window.
	FusionRatio float64 `json:"fusion_ratio"`
}

// key is the row identity baselines name and, with the fused setting, the
// -compare gate matches on: app and size, then every configuration delta
// from the default.
func (r RealResult) key() string {
	k := r.App + "/" + r.Size
	if r.DType != "f64" {
		k += "/" + r.DType
	}
	if r.Shards > 1 {
		k += fmt.Sprintf("/shards=%d", r.Shards)
	}
	if r.Ranks > 0 {
		k += fmt.Sprintf("/ranks=%d", r.Ranks)
	}
	if r.Tenants > 0 {
		k += fmt.Sprintf("/tenants=%d", r.Tenants)
	}
	if r.Variant != "default" {
		k += "/" + r.Variant
	}
	return k
}

// rowID identifies a row within one suite.
type rowID struct {
	key   string
	fused bool
}

func (r RealResult) id() rowID { return rowID{r.key(), r.Fused} }

// multiProcess reports a row whose time moves with how the OS schedules
// several processes or tenants, not just with the code.
func (r RealResult) multiProcess() bool { return r.Ranks > 1 || r.Tenants > 1 }

// RealSuite is the full BENCH_real.json document.
type RealSuite struct {
	Schema     string       `json:"schema"`
	Command    string       `json:"command"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Procs      int          `json:"procs"`
	Preset     string       `json:"preset"`
	Results    []RealResult `json:"results"`
}

// realVariants maps each value of the variant column to the configuration
// switch it applies. Every switch other than the default runs a
// bit-identical oracle path, so a default row measured against a variant
// baseline prices the switch alone.
var realVariants = map[string]func(*core.Config){
	"default": func(*core.Config) {},
	// The register interpreter instead of the compiled-kernel tier.
	"interp": func(c *core.Config) { c.Codegen = legion.CodegenOff },
	// The static cost model instead of feedback-directed scheduling.
	"static": func(c *core.Config) { c.Feedback = legion.FeedbackOff },
}

// realCase is one configuration of the suite: a workload at one size and
// its delta from the default configuration — dtype, shards, ranks,
// variant, and tenants. reps full measurements are taken per fusion
// setting; a row reports their median (the lower middle one for an even
// count).
type realCase struct {
	app     string
	size    string
	n       int
	dtype   cunum.DType
	shards  int    // sharded-execution block count (0/1 = off)
	ranks   int    // rank subprocess count (0 = in-process; forces shards = ranks)
	variant string // realVariants key ("" = default)
	tenants int    // serve rows: concurrent tenants (0 = engine row)
	// baseline is the key of an earlier row this case is measured against.
	baseline string
	warmup   int
	iters    int // timed iterations (serve rows: streams per tenant)
	reps     int // engine rows; a serve row keeps the best of serveBenchReps
	// make builds an engine row's workload; req is the stream every tenant
	// of a serve row submits.
	make func(ctx *cunum.Context, n int, dt cunum.DType) realApp
	req  serve.SubmitRequest
}

// result returns the case's row at one fusion setting, identity only.
func (c realCase) result(procs int, fused bool) RealResult {
	variant := c.variant
	if variant == "" {
		variant = "default"
	}
	return RealResult{
		App: c.app, Size: c.size, N: c.n, Procs: procs,
		Shards: max(c.shards, c.ranks, 1), Ranks: c.ranks, Tenants: c.tenants,
		Variant: variant, DType: c.dtype.String(), Fused: fused, Iters: c.iters,
		Baseline: c.baseline,
	}
}

// config is the ModeReal default configuration with the case's deltas
// applied.
func (c realCase) config(procs int, fused bool) core.Config {
	cfg := core.DefaultConfig(procs)
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(procs)
	cfg.Enabled = fused
	cfg.Shards = c.shards
	cfg.Ranks = c.ranks
	realVariants[c.result(procs, fused).Variant](&cfg)
	return cfg
}

// realApp is a built engine workload: iterate submits iterations, and
// probe returns a view of a store they write, whose forced scalar read
// closes every timed window.
type realApp struct {
	ctx     *cunum.Context
	iterate func(n int)
	probe   func() *cunum.Array
}

// window submits iters iterations and returns the wall clock until they
// are complete. Flush returns once legion holds the tasks, and on a
// distributed runtime even a shard-group drain returns once the parent
// has sent them; the closing read waits for everything before it — on
// rank rows it is a round trip to rank 0 after the group's write-back.
func (a realApp) window(iters int) time.Duration {
	t0 := time.Now()
	a.iterate(iters)
	a.ctx.Flush()
	if _, ok := a.probe().Future().ValueOK(); !ok {
		panic("bench: the closing read of a real-mode window returned no data")
	}
	return time.Since(t0)
}

func mkCG(ctx *cunum.Context, n int, _ cunum.DType) realApp {
	A := apps.BuildPoisson2D(ctx, n)
	cg := apps.NewCG(ctx, A, ctx.Ones(A.Rows()), false)
	return realApp{ctx, cg.Iterate, func() *cunum.Array { return cg.X }}
}

func mkJacobi(ctx *cunum.Context, n int, dt cunum.DType) realApp {
	j := apps.NewJacobiTotalT(ctx, n, dt)
	return realApp{ctx, j.Iterate, func() *cunum.Array { return j.X }}
}

func mkBlackScholes(ctx *cunum.Context, n int, dt cunum.DType) realApp {
	b := apps.NewBlackScholesT(ctx, n, dt)
	return realApp{ctx, b.Iterate, func() *cunum.Array { return b.Call }}
}

func mkSWE(ctx *cunum.Context, n int, _ cunum.DType) realApp {
	s := apps.NewSWE(ctx, n, n, false)
	return realApp{ctx, s.Iterate, func() *cunum.Array { return s.H }}
}

// mrhsK is the right-hand-side count of the Jacobi-MRHS rows: enough
// sweeps over the shared matrix that shard-major blocking has reuse to
// exploit, small enough that the rows stay minutes, not hours.
const mrhsK = 8

func mkJacobiMRHS(ctx *cunum.Context, n int, dt cunum.DType) realApp {
	m := apps.NewJacobiMRHS(ctx, n, mrhsK, dt)
	return realApp{ctx, m.Iterate, func() *cunum.Array { return m.X[mrhsK-1] }}
}

// Stencil-chain parameters: chainDepth dependent sweeps per iteration in
// blocks of chainBlock unknowns. Depth is what the group DAG pipelines
// across: it walks each shard's slabs through all chainDepth sweeps back
// to back instead of streaming the full operator pair once per sweep.
const (
	chainBlock     = 128
	chainDepth     = 16
	chainBlockTiny = 64
	chainDepthTiny = 6
)

func mkStencilChain(ctx *cunum.Context, n int, dt cunum.DType) realApp {
	t, d := chainBlock, chainDepth
	if n < 8192 {
		t, d = chainBlockTiny, chainDepthTiny
	}
	sc := apps.NewStencilChain(ctx, n, t, d, apps.ChainUpwind, dt)
	// The first live row: the state's leading block is the inflow pad.
	return realApp{ctx, sc.Iterate, func() *cunum.Array { return sc.X.Slice([]int{t}, []int{t + 1}).Temp() }}
}

// serveRows returns the Serve-Chain rows of one size: every tenant
// submits req streams times, at 1, 4, and 16 tenants, and the
// multi-tenant rows are measured against the 1-tenant row.
func serveRows(size string, req serve.SubmitRequest, streams int) []realCase {
	var cs []realCase
	for _, t := range []int{1, 4, 16} {
		c := realCase{app: "Serve-Chain", size: size, n: req.N, tenants: t, iters: streams, req: req}
		if t > 1 {
			c.baseline = "Serve-Chain/" + size + "/tenants=1"
		}
		cs = append(cs, c)
	}
	return cs
}

// realCases returns the rows of a preset. "full" is the committed
// trajectory (a few minutes of wall clock) plus the tiny smoke rows — the
// committed file must contain rows the CI perf-regression gate can match
// against a fresh tiny run (`diffuse-bench -compare`). The tiny rows run
// first, so they are measured in the same fresh process a CI run starts
// from. "tiny" is the CI smoke variant alone (seconds). n is the grid
// side for CG/SWE, total unknowns for Jacobi, and options per processor
// for Black-Scholes.
func realCases(preset string) []realCase {
	switch preset {
	case "full":
		return append(tinyCases(), fullCases()...)
	case "tiny":
		return tinyCases()
	default:
		return nil
	}
}

func fullCases() []realCase {
	// "small" sits squarely in the fine-grained regime the paper's §7
	// granularity discussion targets (runtime overhead comparable to
	// kernel work); "large" is compute-bound on the interpreted
	// evaluator, bounding the executor's effect from both sides.
	// Black-Scholes and Jacobi additionally run an f32 column measured
	// against the f64 row: Jacobi "large" is the bandwidth-bound case (the
	// n^2 matrix sweep dominates, and at n=512 the f32 matrix fits a cache
	// level the f64 one does not), so it is where halving the element
	// width shows up as wall-clock.
	cases := []realCase{
		// CG and Jacobi "small" run a static-schedule baseline before the
		// feedback row: fine-grained iterative solvers are where the static
		// model's routing errors cost whole pool dispatches per task.
		// These pairs run longer windows and more reps than their size
		// peers: the ratio divides two separately-measured rows, and on a
		// host where GC pacing or scheduler phase can swing a short window
		// ±50%, a few reps over short windows turn that into ratio noise.
		{app: "CG", size: "small", n: 16, variant: "static", warmup: 4, iters: 240, reps: 5, make: mkCG},
		{app: "CG", size: "small", n: 16, baseline: "CG/small/static", warmup: 4, iters: 240, reps: 5, make: mkCG},
		{app: "CG", size: "medium", n: 48, warmup: 4, iters: 60, reps: 3, make: mkCG},
		{app: "CG", size: "large", n: 144, warmup: 3, iters: 15, reps: 2, make: mkCG},
		{app: "Jacobi", size: "small", n: 64, variant: "static", warmup: 4, iters: 300, reps: 5, make: mkJacobi},
		{app: "Jacobi", size: "small", n: 64, baseline: "Jacobi/small/static", warmup: 4, iters: 300, reps: 5, make: mkJacobi},
		{app: "Jacobi", size: "medium", n: 192, warmup: 3, iters: 80, reps: 3, make: mkJacobi},
		{app: "Jacobi", size: "large", n: 512, warmup: 3, iters: 20, reps: 2, make: mkJacobi},
		{app: "Jacobi", size: "small", n: 64, dtype: cunum.F32, baseline: "Jacobi/small", warmup: 4, iters: 300, reps: 3, make: mkJacobi},
		{app: "Jacobi", size: "medium", n: 192, dtype: cunum.F32, baseline: "Jacobi/medium", warmup: 3, iters: 80, reps: 3, make: mkJacobi},
		{app: "Jacobi", size: "large", n: 512, dtype: cunum.F32, baseline: "Jacobi/large", warmup: 3, iters: 20, reps: 2, make: mkJacobi},
		{app: "Black-Scholes", size: "small", n: 64, warmup: 4, iters: 100, reps: 3, make: mkBlackScholes},
		// Black-Scholes "medium" runs an interpreter baseline before each
		// codegen row: the workload is all element-wise arithmetic (the
		// loops the closure tier compiles), so it prices the tier where it
		// matters most, with the f32 row the headline (monomorphic float32
		// blocks vs the interpreter's per-element register dispatch).
		{app: "Black-Scholes", size: "medium", n: 1024, variant: "interp", warmup: 3, iters: 30, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "medium", n: 1024, baseline: "Black-Scholes/medium/interp", warmup: 3, iters: 30, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "large", n: 8192, warmup: 3, iters: 10, reps: 2, make: mkBlackScholes},
		{app: "Black-Scholes", size: "small", n: 64, dtype: cunum.F32, baseline: "Black-Scholes/small", warmup: 4, iters: 100, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "medium", n: 1024, dtype: cunum.F32, variant: "interp", baseline: "Black-Scholes/medium/interp", warmup: 3, iters: 30, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "medium", n: 1024, dtype: cunum.F32, baseline: "Black-Scholes/medium/f32/interp", warmup: 3, iters: 30, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "large", n: 8192, dtype: cunum.F32, baseline: "Black-Scholes/large", warmup: 3, iters: 10, reps: 2, make: mkBlackScholes},
		{app: "SWE", size: "small", n: 16, warmup: 4, iters: 60, reps: 3, make: mkSWE},
		{app: "SWE", size: "medium", n: 48, warmup: 3, iters: 30, reps: 3, make: mkSWE},
		{app: "SWE", size: "large", n: 128, warmup: 3, iters: 10, reps: 2, make: mkSWE},
		// Jacobi-MRHS: k=8 right-hand sides sharing one dense matrix —
		// the bandwidth-bound workload of the sharded-execution rows.
		// "large" (n=4096: a 134 MB matrix streamed 8x per iteration)
		// exceeds the TLB/cache reach, so shard-major scheduling at
		// 2 and 4 shards recovers locality the flat task stream
		// cannot; "medium" fits near memory and bounds the effect
		// from below. Results are bit-identical across shard counts.
		{app: "Jacobi-MRHS", size: "medium", n: 2048, warmup: 1, iters: 6, reps: 2, make: mkJacobiMRHS},
		{app: "Jacobi-MRHS", size: "medium", n: 2048, shards: 4, baseline: "Jacobi-MRHS/medium", warmup: 1, iters: 6, reps: 2, make: mkJacobiMRHS},
		{app: "Jacobi-MRHS", size: "large", n: 4096, warmup: 1, iters: 4, reps: 2, make: mkJacobiMRHS},
		{app: "Jacobi-MRHS", size: "large", n: 4096, shards: 2, baseline: "Jacobi-MRHS/large", warmup: 1, iters: 4, reps: 2, make: mkJacobiMRHS},
		{app: "Jacobi-MRHS", size: "large", n: 4096, shards: 4, baseline: "Jacobi-MRHS/large", warmup: 1, iters: 4, reps: 2, make: mkJacobiMRHS},
		// Deep stencil chain: chainDepth dependent block-banded matvec
		// sweeps per iteration (internal/apps.StencilChain, upwind).
		// "large" streams a 128 MB operator pair per sweep — past this
		// host's effective cache/TLB reach, where the group DAG keeps each
		// shard's slabs hot across consecutive sweeps; "medium" (64 MB)
		// sits below the wall and bounds the effect from the other side.
		// Each sharded row is measured against the unsharded row.
		{app: "Stencil-Chain", size: "medium", n: 32768, warmup: 1, iters: 4, reps: 2, make: mkStencilChain},
		{app: "Stencil-Chain", size: "medium", n: 32768, shards: 4, baseline: "Stencil-Chain/medium", warmup: 1, iters: 4, reps: 2, make: mkStencilChain},
		{app: "Stencil-Chain", size: "large", n: 65536, warmup: 1, iters: 3, reps: 2, make: mkStencilChain},
		{app: "Stencil-Chain", size: "large", n: 65536, shards: 4, baseline: "Stencil-Chain/large", warmup: 1, iters: 3, reps: 2, make: mkStencilChain},
		// Multi-process distributed rows: the same workloads as 2 rank
		// subprocesses over the local transport (core.Config.Ranks),
		// measured against the in-process unsharded row — the whole
		// distributed stack (control replication, halo and write-back
		// traffic) against single-process execution. Results are
		// bit-identical to Shards=2 (the internal/dist tests hold that
		// line).
		{app: "Jacobi-MRHS", size: "medium", n: 2048, ranks: 2, baseline: "Jacobi-MRHS/medium", warmup: 1, iters: 6, reps: 2, make: mkJacobiMRHS},
		{app: "Stencil-Chain", size: "medium", n: 32768, ranks: 2, baseline: "Stencil-Chain/medium", warmup: 1, iters: 4, reps: 2, make: mkStencilChain},
	}
	return append(cases, serveRows("medium", serve.SubmitRequest{Workload: "chain", N: 4096, Iters: 6}, 16)...)
}

// tinyReps is the rep count of every tiny engine row. On a noisy
// two-core host the median of 27 kept every gated ratio of the preset
// within 70% of its value in another run, across 30 pairs of runs; the
// median of nine let single ratios reach the gate's floor in about one
// run in eight, and the minimum of three to five did worse.
const tinyReps = 27

func tinyCases() []realCase {
	// The tiny rows feed the CI perf-regression gate, so they trade a few
	// extra seconds for stability: the median of tinyReps reps, after
	// enough warmup that the fusion window has stopped growing (one warmup
	// iteration left Black-Scholes' fused window growth inside the timed
	// window, at twice its steady-state ns/iter).
	cases := []realCase{
		// CG and Jacobi run a static-schedule baseline first, and the
		// Black-Scholes codegen rows an interpreter baseline: a collapse in
		// their ratio means calibration or the compiled tier stopped
		// engaging. Black-Scholes and Stencil-Chain run long windows:
		// a few-millisecond window on a noisy host swings far more than
		// the effects their ratios price. Jacobi is the exception: its
		// fusion_speedup held within ±6% across repeated measurements at
		// 160 iterations and spread ±10% at 480. A row times as many
		// iterations as its baseline, so the ratio does not also price a
		// window's fixed cost (the closing read) spread over fewer
		// iterations.
		{app: "CG", size: "tiny", n: 24, variant: "static", warmup: 2, iters: 40, reps: tinyReps, make: mkCG},
		{app: "CG", size: "tiny", n: 24, baseline: "CG/tiny/static", warmup: 2, iters: 40, reps: tinyReps, make: mkCG},
		{app: "Jacobi", size: "tiny", n: 64, variant: "static", warmup: 2, iters: 160, reps: tinyReps, make: mkJacobi},
		{app: "Jacobi", size: "tiny", n: 64, baseline: "Jacobi/tiny/static", warmup: 2, iters: 160, reps: tinyReps, make: mkJacobi},
		{app: "Jacobi", size: "tiny", n: 64, dtype: cunum.F32, baseline: "Jacobi/tiny", warmup: 2, iters: 160, reps: tinyReps, make: mkJacobi},
		{app: "Black-Scholes", size: "tiny", n: 256, variant: "interp", warmup: 4, iters: 16, reps: tinyReps, make: mkBlackScholes},
		{app: "Black-Scholes", size: "tiny", n: 256, baseline: "Black-Scholes/tiny/interp", warmup: 4, iters: 16, reps: tinyReps, make: mkBlackScholes},
		{app: "Black-Scholes", size: "tiny", n: 256, dtype: cunum.F32, variant: "interp", baseline: "Black-Scholes/tiny/interp", warmup: 4, iters: 16, reps: tinyReps, make: mkBlackScholes},
		{app: "Black-Scholes", size: "tiny", n: 256, dtype: cunum.F32, baseline: "Black-Scholes/tiny/f32/interp", warmup: 4, iters: 16, reps: tinyReps, make: mkBlackScholes},
		{app: "SWE", size: "tiny", n: 24, warmup: 4, iters: 6, reps: tinyReps, make: mkSWE},
		{app: "Jacobi-MRHS", size: "tiny", n: 256, warmup: 1, iters: 5, reps: tinyReps, make: mkJacobiMRHS},
		{app: "Jacobi-MRHS", size: "tiny", n: 256, shards: 4, baseline: "Jacobi-MRHS/tiny", warmup: 1, iters: 5, reps: tinyReps, make: mkJacobiMRHS},
		{app: "Stencil-Chain", size: "tiny", n: 2048, warmup: 1, iters: 16, reps: tinyReps, make: mkStencilChain},
		{app: "Stencil-Chain", size: "tiny", n: 2048, shards: 4, baseline: "Stencil-Chain/tiny", warmup: 1, iters: 16, reps: tinyReps, make: mkStencilChain},
		// Distributed smoke rows: 2 rank subprocesses, so a collapse in the
		// control or halo path (not just outright breakage) fails CI.
		{app: "Jacobi-MRHS", size: "tiny", n: 256, ranks: 2, baseline: "Jacobi-MRHS/tiny", warmup: 1, iters: 5, reps: tinyReps, make: mkJacobiMRHS},
		{app: "Stencil-Chain", size: "tiny", n: 2048, ranks: 2, baseline: "Stencil-Chain/tiny", warmup: 1, iters: 16, reps: tinyReps, make: mkStencilChain},
	}
	// 16 streams per tenant: the 1-tenant row is latency-bound, so a
	// shorter window is noise-dominated and can spuriously beat the
	// multi-tenant rows measured against it.
	return append(cases, serveRows("tiny", serve.SubmitRequest{Workload: "chain", N: 1024, Iters: 4}, 16)...)
}

// realSample is one timed window: wall-clock ns/iter plus the task
// accounting of the window.
type realSample struct {
	ns, tasks, fusion float64
}

// measureCase runs the case at one fusion setting on a fresh context.
func measureCase(c realCase, procs int, fused bool) realSample {
	ctx := cunum.NewContext(core.New(c.config(procs, fused)))
	defer func() {
		// Distributed rows launch rank subprocesses; a failed shutdown is a
		// failed measurement, not a skippable cleanup.
		if err := ctx.Close(); err != nil {
			panic(fmt.Sprintf("bench: closing %s/%s at ranks=%d: %v", c.app, c.size, c.ranks, err))
		}
	}()
	app := c.make(ctx, c.n, c.dtype)
	app.window(c.warmup) // window growth, JIT, memo saturation
	rt := ctx.Runtime()
	leg := rt.Legion()
	s0 := rt.Stats()
	e0 := leg.ExecutedTasks
	dt := app.window(c.iters)
	s1 := rt.Stats()
	s := realSample{
		ns:    float64(dt.Nanoseconds()) / float64(c.iters),
		tasks: float64(leg.ExecutedTasks-e0) / float64(c.iters),
	}
	if sub := s1.Submitted - s0.Submitted; sub > 0 {
		s.fusion = float64(s1.FusedOriginals-s0.FusedOriginals) / float64(sub)
	}
	return s
}

// measure returns the case's rows, baseline ratios not yet filled in. An
// engine case yields a fused and an unfused row, measured interleaved
// within every rep and alternating which runs first, so drift on a shared
// machine hits both sides. Each row keeps its median rep, and
// fusion_speedup is the median of the per-rep unfused/fused ratios: on a
// noisy host a window's time is bimodal (a run now and then lands far
// below the rest), and a minimum swings with whether one landed. A serve
// case yields one row: the server's fusion setting is not a tenant's
// choice.
func (c realCase) measure(procs int) ([]RealResult, error) {
	if c.tenants > 0 {
		p, err := bestServePoint(c.tenants, c.iters, c.req, procs)
		if err != nil {
			return nil, err
		}
		r := c.result(procs, true)
		r.NsPerIter, r.StreamsPerSec = p.NsPerStream, p.StreamsPerSec
		r.ServePlanCacheHits, r.ServePlanCacheMisses = p.PlanHits, p.PlanMisses
		return []RealResult{r}, nil
	}
	var fused, unfused []realSample
	for rep := 0; rep < c.reps; rep++ {
		for _, f := range [2]bool{rep%2 == 0, rep%2 != 0} {
			runtime.GC()
			if s := measureCase(c, procs, f); f {
				fused = append(fused, s)
			} else {
				unfused = append(unfused, s)
			}
		}
	}
	ratios := make([]float64, c.reps)
	for i := range ratios {
		ratios[i] = unfused[i].ns / fused[i].ns
	}
	slices.Sort(ratios)
	rows := []RealResult{c.result(procs, true), c.result(procs, false)}
	for i, ss := range [][]realSample{fused, unfused} {
		slices.SortFunc(ss, func(a, b realSample) int { return cmp.Compare(a.ns, b.ns) })
		s := ss[(len(ss)-1)/2]
		rows[i].NsPerIter, rows[i].TasksPerIter, rows[i].FusionRatio = s.ns, s.tasks, s.fusion
	}
	rows[0].FusionSpeedup = ratios[(len(ratios)-1)/2]
	return rows, nil
}

// RunRealSuite measures every case of the preset, streaming a progress
// table to w.
func RunRealSuite(preset string, procs int, w io.Writer) (*RealSuite, error) {
	cases := realCases(preset)
	if cases == nil {
		return nil, fmt.Errorf("bench: unknown real-suite preset %q", preset)
	}
	suite := &RealSuite{
		Schema:  RealSchema,
		Command: fmt.Sprintf("go run ./cmd/diffuse-bench -real -realpreset %s -realprocs %d", preset, procs),
		Procs:   procs,
		Preset:  preset,
	}
	fmt.Fprintf(w, "== real-mode suite (preset %s, %d-point launches, GOMAXPROCS=%d) ==\n",
		preset, procs, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-14s %-7s %6s %-5s %3s %3s %3s %-8s %6s %14s %8s %8s %10s %7s\n",
		"App", "Size", "N", "DType", "Sh", "Rk", "Tn", "Variant", "Fused", "ns/iter", "vs unf", "vs base", "Tasks/Iter", "Fusion")
	nsByID := map[rowID]float64{}
	for _, c := range cases {
		rows, err := c.measure(procs)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if r.Baseline != "" {
				base, ok := nsByID[rowID{r.Baseline, r.Fused}]
				if !ok {
					return nil, fmt.Errorf("bench: baseline %q of %s is not an earlier row", r.Baseline, r.key())
				}
				r.SpeedupVsBaseline = base / r.NsPerIter
			}
			nsByID[r.id()] = r.NsPerIter
			suite.Results = append(suite.Results, r)
			fmt.Fprintf(w, "%-14s %-7s %6d %-5s %3d %3d %3d %-8s %6v %14.0f %8s %8s %10.1f %6.0f%%\n",
				r.App, r.Size, r.N, r.DType, r.Shards, r.Ranks, r.Tenants, r.Variant, r.Fused, r.NsPerIter,
				ratioMark(r.FusionSpeedup), ratioMark(r.SpeedupVsBaseline), r.TasksPerIter, r.FusionRatio*100)
		}
	}
	// gomaxprocs records the value in effect *while* measuring, so a
	// harness that adjusts parallelism after building the suite header can
	// never stamp a stale count into the committed trajectory (the
	// -compare gate keys on this field).
	suite.GoMaxProcs = runtime.GOMAXPROCS(0)
	return suite, nil
}

// ratioMark renders an optional ratio for the progress table.
func ratioMark(r float64) string {
	if r == 0 {
		return ""
	}
	return fmt.Sprintf("%.2fx", r)
}

// MarshalRealSuite renders the suite as the committed JSON document.
func MarshalRealSuite(s *RealSuite) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// realResultKeys are the per-row fields the schema gate requires; the
// ratio, baseline, and serve fields are optional.
var realResultKeys = []string{
	"app", "size", "n", "procs", "shards", "ranks", "tenants", "variant",
	"dtype", "fused", "iters", "ns_per_iter", "tasks_per_iter", "fusion_ratio",
}

// ValidateRealSuite checks a BENCH_real.json payload against the current
// schema: exact field set (unknown or missing keys fail), matching schema
// version, physically sensible measurements, and baselines that name
// earlier rows. The CI smoke job runs it against both a freshly generated
// file and the committed one.
func ValidateRealSuite(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s RealSuite
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("bench: BENCH_real.json does not match schema structs: %w", err)
	}
	if s.Schema != RealSchema {
		return fmt.Errorf("bench: schema %q, want %q", s.Schema, RealSchema)
	}
	if len(s.Results) == 0 {
		return fmt.Errorf("bench: no results")
	}
	// Key-presence pass: struct decoding cannot see dropped fields.
	var raw struct {
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	for i, row := range raw.Results {
		for _, k := range realResultKeys {
			if _, ok := row[k]; !ok {
				return fmt.Errorf("bench: result %d missing key %q", i, k)
			}
		}
	}
	earlier := map[rowID]bool{}
	for i, r := range s.Results {
		if r.App == "" || r.Size == "" || r.Iters <= 0 || r.Procs <= 0 {
			return fmt.Errorf("bench: result %d has empty identity fields", i)
		}
		if r.Shards < 1 || r.Ranks < 0 || r.Tenants < 0 {
			return fmt.Errorf("bench: result %d has shards=%d ranks=%d tenants=%d, want shards >= 1 and the others >= 0", i, r.Shards, r.Ranks, r.Tenants)
		}
		if _, ok := realVariants[r.Variant]; !ok {
			return fmt.Errorf("bench: result %d has unknown variant %q", i, r.Variant)
		}
		if r.DType != "f64" && r.DType != "f32" {
			return fmt.Errorf("bench: result %d has unknown dtype %q", i, r.DType)
		}
		if r.Ranks > 1 && r.Shards != r.Ranks {
			return fmt.Errorf("bench: result %d ran at ranks=%d but shards=%d (distribution forces shards = ranks)", i, r.Ranks, r.Shards)
		}
		if r.Tenants > 0 {
			if r.StreamsPerSec <= 0 {
				return fmt.Errorf("bench: result %d is a serve row without a streams/sec measurement", i)
			}
			if r.ServePlanCacheHits <= 0 {
				return fmt.Errorf("bench: result %d is a serve row with no shared-plan-cache hits (identical streams must share compiled plans)", i)
			}
		} else if r.StreamsPerSec != 0 || r.ServePlanCacheHits != 0 || r.ServePlanCacheMisses != 0 {
			return fmt.Errorf("bench: result %d is not a serve row but carries serve metrics", i)
		}
		if r.NsPerIter <= 0 || r.FusionSpeedup < 0 || r.SpeedupVsBaseline < 0 {
			return fmt.Errorf("bench: result %d has non-positive measurements", i)
		}
		if (r.Baseline == "") != (r.SpeedupVsBaseline == 0) {
			return fmt.Errorf("bench: result %d has baseline %q but speedup_vs_baseline %v (a ratio needs a baseline and a baseline a ratio)", i, r.Baseline, r.SpeedupVsBaseline)
		}
		if r.Baseline != "" && !earlier[rowID{r.Baseline, r.Fused}] {
			return fmt.Errorf("bench: result %d names baseline %q, which is not an earlier row with fused=%v", i, r.Baseline, r.Fused)
		}
		earlier[r.id()] = true
	}
	return nil
}
