package legion

// The persistent real-mode executor. v1 spawned one goroutine per point
// task behind a semaphore and re-resolved every region, shape, and stride
// once per point; on streams of fine-grained tasks the runtime spent more
// time standing up execution than executing. v2 keeps a NumCPU-sized pool
// of workers alive for the life of the Runtime and feeds it *chunks* —
// groups of contiguous point-task colors sized by the machine cost model
// so each dispatch carries enough work to amortize its scheduling. Workers
// claim chunks from their own range and steal from the back of other
// workers' ranges when they run dry; tasks estimated to finish faster than
// a dispatch costs run inline on the submitting goroutine.
//
// Determinism: every point task accumulates reductions into its own
// per-point partial cell, and the barrier folds cells in point order —
// results are bit-identical to the per-point baseline no matter how chunks
// are sized, scheduled, or stolen.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
)

// ExecPolicy selects how ModeReal point tasks are scheduled.
type ExecPolicy int

// Executor policies.
const (
	// ExecChunked (the default) runs point tasks on the runtime's
	// persistent worker pool in cost-model-sized chunks with work
	// stealing, running sub-dispatch-cost tasks inline.
	ExecChunked ExecPolicy = iota
	// ExecPerPoint reproduces the v1 executor — one goroutine per point
	// task behind a semaphore — and exists as the chunked executor's
	// bit-identity oracle.
	ExecPerPoint
)

// ExecStats counts executor activity since the runtime was created.
type ExecStats struct {
	// InlineTasks is the number of index tasks executed on the submitting
	// goroutine because their estimated duration was below the dispatch
	// cutoff.
	InlineTasks int64
	// PoolTasks is the number of index tasks dispatched to the worker
	// pool.
	PoolTasks int64
	// Chunks is the number of dispatch chunks claimed (including stolen
	// ones).
	Chunks int64
	// Steals is the number of chunks a worker claimed from another
	// worker's range.
	Steals int64
}

// executor is the persistent worker pool of one ModeReal runtime. Exactly
// one batch runs at a time (Runtime.Execute serializes on execMu), so the
// claim ranges and per-worker states are reused batch to batch.
type executor struct {
	nw   int
	host machine.Config

	wake  []chan *execBatch
	quit  chan struct{}
	spawn sync.Once
	halt  sync.Once

	// ranges[w] is worker w's claimable chunk range for the current
	// batch; index nw belongs to the submitting goroutine, which
	// participates as the last claimant.
	ranges []claimRange
	// ws[w] is worker w's reusable binding/scratch state; index nw is the
	// submitter's.
	ws []workerState

	inline atomic.Int64
	pooled atomic.Int64
	chunks atomic.Int64
	steals atomic.Int64
}

func newExecutor(workers int, host machine.Config) *executor {
	if workers < 1 {
		workers = 1
	}
	e := &executor{
		nw:     workers,
		host:   host,
		wake:   make([]chan *execBatch, workers),
		quit:   make(chan struct{}),
		ranges: make([]claimRange, workers+1),
		ws:     make([]workerState, workers+1),
	}
	for w := range e.wake {
		e.wake[w] = make(chan *execBatch, 1)
	}
	return e
}

// startWorkers spawns the pool on first pooled dispatch, so runtimes that
// only ever run inline-sized tasks (or simulate) cost no goroutines.
func (e *executor) startWorkers() {
	e.spawn.Do(func() {
		for w := 0; w < e.nw; w++ {
			go e.workerLoop(w)
		}
	})
}

// shutdown stops the worker goroutines; invoked by the Runtime finalizer
// once no further Execute can occur.
func (e *executor) shutdown() {
	e.halt.Do(func() { close(e.quit) })
}

func (e *executor) workerLoop(w int) {
	for {
		select {
		case b := <-e.wake[w]:
			e.run(b, w, w)
			b.wg.Done()
		case <-e.quit:
			return
		}
	}
}

// claimRange is a [lo, hi) interval of chunk indices supporting
// concurrent pop-front (owner) and pop-back (thieves) via CAS on one
// packed word. Padded so adjacent workers' ranges do not share a cache
// line during steal storms.
type claimRange struct {
	bits atomic.Uint64
	_    [56]byte
}

func packRange(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(uint32(hi)) }

func (r *claimRange) set(lo, hi int) { r.bits.Store(packRange(lo, hi)) }

func (r *claimRange) popFront() (int, bool) {
	for {
		v := r.bits.Load()
		lo, hi := int(v>>32), int(uint32(v))
		if lo >= hi {
			return 0, false
		}
		if r.bits.CompareAndSwap(v, packRange(lo+1, hi)) {
			return lo, true
		}
	}
}

func (r *claimRange) popBack() (int, bool) {
	for {
		v := r.bits.Load()
		lo, hi := int(v>>32), int(uint32(v))
		if lo >= hi {
			return 0, false
		}
		if r.bits.CompareAndSwap(v, packRange(lo, hi-1)) {
			return hi - 1, true
		}
	}
}

// workerState is one worker's reusable execution state: the PointArgs
// (bindings, payload map, scratch) rebound in place for every point task
// it runs, and per-argument extent buffers.
type workerState struct {
	pa      kir.PointArgs
	scratch *kir.Scratch
	ext     [][]int
}

func (ws *workerState) prepare(nargs int, payload *Payload) {
	if ws.scratch == nil {
		ws.scratch = kir.NewScratch()
	}
	ws.pa.Scratch = ws.scratch
	if cap(ws.pa.Bind) < nargs {
		ws.pa.Bind = make([]kir.Binding, nargs)
	}
	ws.pa.Bind = ws.pa.Bind[:nargs]
	if cap(ws.ext) < nargs {
		ext := make([][]int, nargs)
		copy(ext, ws.ext)
		ws.ext = ext
	}
	ws.ext = ws.ext[:nargs]
	if payload != nil && len(payload.CSR) > 0 && ws.pa.Payloads == nil {
		ws.pa.Payloads = map[int]*kir.CSRLocal{}
	}
}

// release drops buffer references when a batch ends: a parked worker must
// not pin the batch's regions or CSR payloads (the same pattern kir's
// evaluator applies to its slot states), and a stale payload entry must
// never satisfy a key a later batch fails to provide.
func (ws *workerState) release() {
	for i := range ws.pa.Bind {
		ws.pa.Bind[i] = kir.Binding{}
	}
	if len(ws.pa.Payloads) > 0 {
		clear(ws.pa.Payloads)
	}
}

// execBatch is one unit of work in flight on the pool: either one index
// task whose chunks of contiguous point-task colors the participants
// claim, or (shardRun set) one sharded stage whose claimable units are
// whole shards.
type execBatch struct {
	plan    *taskPlan
	comp    *kir.Compiled
	payload *Payload
	colors  []ir.Point
	chunk   int // points per chunk
	nparts  int // populated claim ranges (woken workers + submitter)
	wg      sync.WaitGroup

	// interp, when set, forces this batch through the interpreter even
	// though a codegen program is attached — the feedback layer's backend
	// pick (a probe while the interpreter twin warms up, or a measured
	// decision that the interpreter is cheaper). Bit-identical either way.
	interp bool
	// timed, when set, receives a timing observation per executed chunk
	// (or per inline task): the feedback layer's sampled calibration.
	timed *machine.Calibrated

	// shardRun, when set, turns the batch into a sharded stage: claimed
	// indices are shard numbers, and the claimant runs the whole shard
	// (every stage task's points for that shard) in one call.
	shardRun func(ws *workerState, shard int)

	// dag, when set, turns the batch into a wavefront DAG drain: the
	// participant joins dagState's readiness loop instead of claiming
	// chunk ranges.
	dag *dagState
}

// taskPlan caches everything executeChunked can pre-resolve for a task
// once per stream instead of once per point: region data, store strides
// and shapes, per-dimension tiling coefficients, launch colors, reduction
// partial buffers, and the cost-model grain estimate. Plans are keyed by
// kernel pointer — memoized fused streams replay the same kernel object
// every iteration, so steady-state iterations skip resolution entirely —
// and validated structurally against the task before reuse. Guarded by
// Runtime.execMu.
type taskPlan struct {
	kernel   *kir.Kernel
	launch   ir.Rect
	colors   []ir.Point
	args     []argPlan
	redArgs  []int        // arg indices with Reduce privilege
	partials []kir.Buffer // parallel to redArgs: per-point partial cells (typed at the destination dtype)
	perPoint float64      // estimated seconds per point task (host model)
	// backend records whether the kernel had codegen-lowered loops when
	// the plan was built (observability: diffuse-trace and tests).
	backend bool
	// epoch is the runtime's free-epoch the plan's regions were resolved
	// at; FreeStore bumps the epoch (O(1) — it must not scan the cache),
	// and a plan whose epoch lags re-resolves every region before use.
	// Deliberate tradeoff: a lagging plan keeps its old data slices
	// reachable until that kernel next executes or the cache clears —
	// bounded by maxPlans and gone entirely with the runtime.
	epoch int64

	// Feedback attachments (see feedback.go), nil with feedback off: the
	// kernel fingerprint and dominant dtype (cached — fingerprints are
	// built once per plan, not per execution), and the calibration
	// classes for the chunked path, its interpreter twin (backend pick),
	// and the sharded path at calShardN shards.
	fp        string
	dtype     kir.DType
	cal       *machine.Calibrated
	calInterp *machine.Calibrated
	calShard  *machine.Calibrated
	calShardN int
}

// argPlan is the pre-resolved binding recipe of one task argument.
type argPlan struct {
	store *ir.Store
	part  ir.Partition
	priv  ir.Privilege
	red   ir.ReduceOp

	local  bool
	data   kir.Buffer // nil buffer for temporary-eliminated (local) args
	redIdx int        // index into taskPlan.redArgs when priv is Reduce

	// None partitions bind identically at every point.
	isNone bool
	static kir.Binding

	// Tiling partitions bind via precomputed coefficients:
	// base = offBase + Σ_d proj(color)[d]*tileCoef[d], element stride
	// accStr[d], extents clipped against the view.
	tp       *ir.TilingPart
	offBase  int
	tileCoef []int
	accStr   []int
}

// Shared read-only binding pieces for reduction cells.
var (
	zeroStride = []int{0}
	extOne     = []int{1}
)

// maxPlans bounds the plan cache; unfused streams mint a fresh kernel per
// task, and the cache must not grow with iteration count.
const maxPlans = 2048

// planFor returns (building and caching if needed) the execution plan of
// the task. Callers hold execMu.
func (rt *Runtime) planFor(t *ir.Task, comp *kir.Compiled) *taskPlan {
	if p, ok := rt.plans[t.Kernel]; ok && p.refresh(rt, t) {
		rt.attachCalibration(p)
		return p
	}
	p := rt.buildPlan(t, comp)
	rt.attachCalibration(p)
	if len(rt.plans) >= maxPlans {
		clear(rt.plans)
	}
	rt.plans[t.Kernel] = p
	return p
}

// refresh revalidates a cached plan against the task. Structure must
// match exactly — launch, per-argument privileges, reduction ops, and
// (structurally) partitions. Fresh store objects are fine as long as
// their shapes match: fused streams recreate non-eliminated temporaries
// every iteration, and the partition/stride coefficients depend only on
// shape, so only the region data is re-resolved, in place. A plan whose
// free-epoch lags the runtime's (some region was freed since it last
// resolved) likewise re-resolves every region. Returns false when the
// plan cannot describe the task and must be rebuilt.
func (p *taskPlan) refresh(rt *Runtime, t *ir.Task) bool {
	if !p.launch.Equal(t.Launch) || len(p.args) != len(t.Args) {
		return false
	}
	fresh := p.epoch == rt.freeEpoch
	for i := range t.Args {
		a := &t.Args[i]
		ap := &p.args[i]
		if ap.priv != a.Priv || ap.red != a.Red || !ap.part.Equal(a.Part) {
			return false
		}
		if ap.store == a.Store {
			continue
		}
		if !intsEq(ap.store.Shape(), a.Store.Shape()) {
			return false
		}
		fresh = false
	}
	if fresh {
		return true
	}
	rebindAll := p.epoch != rt.freeEpoch
	for i := range t.Args {
		a := &t.Args[i]
		ap := &p.args[i]
		if ap.store == a.Store && !rebindAll {
			continue
		}
		ap.store = a.Store
		ap.part = a.Part
		if !ap.local {
			ap.data = rt.regionFor(a.Store, a.Red).data
			if ap.isNone {
				ap.static.Acc.Data = ap.data
			}
		}
	}
	p.epoch = rt.freeEpoch
	return true
}

func intsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (rt *Runtime) buildPlan(t *ir.Task, comp *kir.Compiled) *taskPlan {
	p := &taskPlan{kernel: t.Kernel, launch: t.Launch, colors: t.Launch.Points(), epoch: rt.freeEpoch, backend: comp.HasCodegen()}
	p.dtype = kir.F64
	if len(t.Args) > 0 {
		// Dominant dtype for the calibration class: the first argument's
		// store (fused kernels are single-precision-or-double throughout in
		// practice, and the fingerprint disambiguates mixed cases anyway).
		p.dtype = t.Args[0].Store.DType()
	}
	p.args = make([]argPlan, len(t.Args))
	for i, a := range t.Args {
		ap := &p.args[i]
		ap.store = a.Store
		ap.part = a.Part
		ap.priv = a.Priv
		ap.red = a.Red
		ap.local = t.Kernel.Local[i]
		if !ap.local {
			ap.data = rt.regionFor(a.Store, a.Red).data
		}
		if a.Priv.Reduces() {
			ap.redIdx = len(p.redArgs)
			p.redArgs = append(p.redArgs, i)
		}
		shape := a.Store.Shape()
		strides := a.Store.Strides()
		switch part := a.Part.(type) {
		case *ir.NonePart:
			ap.isNone = true
			ap.static = kir.Binding{
				Acc: kir.Accessor{Data: ap.data, Base: 0, Strides: strides},
				Ext: append([]int(nil), shape...),
			}
		case *ir.TilingPart:
			ap.tp = part
			ap.tileCoef = make([]int, len(shape))
			ap.accStr = make([]int, len(shape))
			for d := range shape {
				ap.offBase += part.Offset[d] * strides[d]
				ap.accStr[d] = part.Stride[d] * strides[d]
				ap.tileCoef[d] = part.Tile[d] * part.Stride[d] * strides[d]
			}
		default:
			panic(fmt.Sprintf("legion: unknown partition kind %T", a.Part))
		}
	}
	p.partials = make([]kir.Buffer, len(p.redArgs))

	// Grain estimate: per-point cost on the host model. SpMV loops draw
	// their row/nnz statistics from the payload when present.
	var stats kir.SpMVStats
	if payload, ok := t.Payload.(*Payload); ok && payload != nil {
		stats = func(key int) (float64, float64, kir.DType) {
			prov, ok := payload.CSR[key]
			if !ok {
				return 0, 0, kir.F64
			}
			rows, nnz := prov.Stats()
			return rows, nnz, prov.ValDType()
		}
	} else {
		stats = func(int) (float64, float64, kir.DType) { return 0, 0, kir.F64 }
	}
	cost := comp.Cost(stats)
	p.perPoint = rt.exec.host.PointCost(cost.Bytes, cost.Flops, cost.Launches)
	return p
}

// resetPartials sizes every reduction's per-point cell buffer to the
// launch width (typed at the destination store's dtype) and refills the
// identities. The launch width is fixed for the life of a plan, so the
// allocation happens once.
func (p *taskPlan) resetPartials(t *ir.Task, n int) {
	for r, i := range p.redArgs {
		dt := t.Args[i].Store.DType()
		if p.partials[r].Len() != n || p.partials[r].DType() != dt {
			p.partials[r] = kir.AllocBuffer(dt, n)
		}
		p.partials[r].Fill(redOpOf(t.Args[i].Red).Identity())
	}
}

// foldPartials combines every reduction's per-point cells into its
// destination cell, in point order — the same order (and the same typed
// fold sequence) the per-point baseline uses, so results are
// scheduling-independent per dtype.
func (p *taskPlan) foldPartials(t *ir.Task) {
	for r, i := range p.redArgs {
		foldPartialCell(redOpOf(t.Args[i].Red), p.args[i].data, p.partials[r])
	}
}

// bindPoint rebinds ws.pa for one point task using the plan's
// pre-resolved recipes; no allocation on the steady-state path.
func bindPoint(p *taskPlan, ws *workerState, pi int, color ir.Point) {
	for i := range p.args {
		ap := &p.args[i]
		switch {
		case ap.priv.Reduces():
			// Reductions accumulate into the point's private cell.
			ws.pa.Bind[i] = kir.Binding{
				Acc: kir.Accessor{Data: p.partials[ap.redIdx], Base: pi, Strides: zeroStride},
				Ext: extOne,
			}
		case ap.isNone:
			ws.pa.Bind[i] = ap.static
		default:
			c := ap.tp.Proj.Apply(color)
			rank := len(ap.tileCoef)
			ext := ws.ext[i]
			if cap(ext) < rank {
				ext = make([]int, rank)
				ws.ext[i] = ext
			}
			ext = ext[:rank]
			base := ap.offBase
			for d := 0; d < rank; d++ {
				cd := c[d]
				base += cd * ap.tileCoef[d]
				e := ap.tp.View[d] - cd*ap.tp.Tile[d]
				if e > ap.tp.Tile[d] {
					e = ap.tp.Tile[d]
				}
				if e < 0 {
					e = 0
				}
				ext[d] = e
			}
			ws.pa.Bind[i] = kir.Binding{
				Acc: kir.Accessor{Data: ap.data, Base: base, Strides: ap.accStr},
				Ext: ext,
			}
		}
	}
}

// runPoint executes one point task on this worker's reusable state.
func (e *executor) runPoint(b *execBatch, ws *workerState, pi int, color ir.Point) {
	bindPoint(b.plan, ws, pi, color)
	if b.payload != nil && len(b.payload.CSR) > 0 {
		for k, prov := range b.payload.CSR {
			ws.pa.Payloads[k] = prov.Local(pi)
		}
	}
	if b.interp {
		b.comp.ExecuteInterp(&ws.pa)
	} else {
		b.comp.Execute(&ws.pa)
	}
}

// runSpan executes the contiguous point range [lo, hi), timing it into the
// batch's calibration class when this batch is sampled. Whole spans are
// timed, never points — two clock reads per dispatch-cost-sized chunk keep
// measurement overhead under 1%.
func (e *executor) runSpan(b *execBatch, ws *workerState, lo, hi int) {
	if b.timed == nil {
		for pi := lo; pi < hi; pi++ {
			e.runPoint(b, ws, pi, b.colors[pi])
		}
		return
	}
	t0 := time.Now()
	for pi := lo; pi < hi; pi++ {
		e.runPoint(b, ws, pi, b.colors[pi])
	}
	b.timed.Observe(time.Since(t0).Seconds(), hi-lo)
}

// run drains chunks for one participant: first its own range front to
// back, then the backs of the other participants' ranges.
func (e *executor) run(b *execBatch, wsIdx, rangeIdx int) {
	ws := &e.ws[wsIdx]
	if b.dag != nil {
		b.dag.loop(ws)
		return
	}
	if b.shardRun != nil {
		for {
			s, stolen, ok := e.claimChunk(rangeIdx, b.nparts)
			if !ok {
				return
			}
			e.chunks.Add(1)
			if stolen {
				e.steals.Add(1)
			}
			b.shardRun(ws, s)
		}
	}
	ws.prepare(len(b.plan.args), b.payload)
	defer ws.release()
	n := len(b.colors)
	for {
		c, stolen, ok := e.claimChunk(rangeIdx, b.nparts)
		if !ok {
			return
		}
		e.chunks.Add(1)
		if stolen {
			e.steals.Add(1)
		}
		lo := c * b.chunk
		hi := lo + b.chunk
		if hi > n {
			hi = n
		}
		e.runSpan(b, ws, lo, hi)
	}
}

func (e *executor) claimChunk(self, nparts int) (chunk int, stolen, ok bool) {
	if c, ok := e.ranges[self].popFront(); ok {
		return c, false, true
	}
	for i := 1; i < nparts; i++ {
		v := self + i
		if v >= nparts {
			v -= nparts
		}
		if c, ok := e.ranges[v].popBack(); ok {
			return c, true, true
		}
	}
	return 0, false, false
}

// executeChunked runs the task's point tasks through the persistent
// executor: plan resolution (cached across the stream), grain selection
// from the host cost model, inline or pooled dispatch, and the reduction
// barrier fold.
func (rt *Runtime) executeChunked(t *ir.Task) {
	if t.Kernel == nil {
		panic(fmt.Sprintf("legion: task %s has no kernel", t.Name))
	}
	comp := rt.Compiled(t.Kernel)
	rt.countBackend(comp)
	plan := rt.planFor(t, comp)
	colors := plan.colors
	n := len(colors)
	if n == 0 {
		return
	}
	payload, _ := t.Payload.(*Payload)
	plan.resetPartials(t, n)

	e := rt.exec
	b := &execBatch{plan: plan, comp: comp, payload: payload, colors: colors}
	perPoint := rt.feedbackRoute(plan, b)
	chunk, inline := e.host.ChunkPoints(perPoint, n, e.nw)
	if plan.cal != nil && perPoint > plan.perPoint {
		// Calibration only moves dispatch *toward* coarser scheduling: it
		// may flip a pooled task inline or grow chunks, never the reverse.
		// A measured per-point cost above the static prior folds in costs
		// more dispatch cannot parallelize away — per-task overheads
		// (binding, payload setup) both paths pay, and timesharing
		// inflation when workers outnumber cores. Pricing those as
		// divisible work would shrink chunks, which adds dispatches, which
		// inflates the next measurement: an unstable feedback loop the
		// static floor cuts. Measured costs *below* the prior still grow
		// chunks and keep the inline flip — the side where the measurement
		// is trustworthy, because contention only ever inflates it.
		schunk, staticInline := e.host.ChunkPoints(plan.perPoint, n, e.nw)
		if staticInline {
			inline = true
		} else if chunk < schunk {
			chunk = schunk
		}
	}
	if inline {
		e.inline.Add(1)
		sub := &e.ws[e.nw]
		sub.prepare(len(plan.args), payload)
		e.runSpan(b, sub, 0, n)
		sub.release()
	} else {
		e.pooled.Add(1)
		b.chunk = chunk
		e.dispatch(b, (n+chunk-1)/chunk)
	}
	plan.foldPartials(t)
}

// feedbackRoute prices one chunked execution: with feedback off it
// returns the static per-point prior untouched; with feedback on it
// returns the calibrated estimate of the cheaper backend, marks the batch
// for interpreter execution when the backend pick (or a warmup probe)
// chooses it, and marks the batch for timing when this execution is
// sampled. Callers hold execMu.
// interpPickMargin is the fraction of the compiled tier's calibrated
// cost the interpreter twin must measure below before the backend pick
// reroutes a class to the interpreter.
const interpPickMargin = 0.85

func (rt *Runtime) feedbackRoute(plan *taskPlan, b *execBatch) float64 {
	if plan.cal == nil {
		return plan.perPoint
	}
	chosen := plan.cal
	est, _ := chosen.Estimate()
	if plan.calInterp != nil {
		iest, ical := plan.calInterp.Estimate()
		switch {
		case !ical:
			// Interpreter twin still warming: probe it (timed) so the pick
			// gets a measured comparison within a few executions — but only
			// on tasks the static model prices onto the pool. A statically
			// inline task finishes in under a dispatch, so no backend pick
			// can earn back what the warmup probes cost; routing a few of
			// its executions through the slower tier would be pure loss on
			// exactly the fine-grained streams feedback targets.
			e := rt.exec
			if _, staticInline := e.host.ChunkPoints(plan.perPoint, len(b.colors), e.nw); !staticInline {
				b.interp = true
				b.timed = plan.calInterp
				chosen, est = plan.calInterp, iest
			}
		case iest < est*interpPickMargin:
			// Measured decision: the interpreter beats the compiled tier
			// for this class (tiny extents where closure dispatch costs
			// more than it saves). Bit-identical backends make this safe.
			// The margin is hysteresis: near parity one noisy sample would
			// flap the pick between backends, and a reroute can only ever
			// recover the gap it measured — demand a decisive gap.
			b.interp = true
			chosen, est = plan.calInterp, iest
			rt.fbInterpRoutes.Add(1)
		}
	}
	if b.timed == nil && chosen.ShouldSample() {
		b.timed = chosen
	}
	return est
}

// dispatch fans one batch of nunits claimable units (dispatch chunks, or
// whole shards when b.shardRun is set) out across the pool: up to nw
// woken workers plus the submitting goroutine (always the last claim
// range), never waking more workers than there are units left after the
// submitter's. Returns after every unit has run.
func (e *executor) dispatch(b *execBatch, nunits int) {
	woken := e.nw
	if nunits-1 < woken {
		woken = nunits - 1
	}
	b.nparts = woken + 1
	for i := 0; i < b.nparts; i++ {
		e.ranges[i].set(i*nunits/b.nparts, (i+1)*nunits/b.nparts)
	}
	e.startWorkers()
	b.wg.Add(woken)
	for w := 0; w < woken; w++ {
		e.wake[w] <- b
	}
	e.run(b, e.nw, b.nparts-1)
	b.wg.Wait()
}

// dagState is a wavefront DAG drain in flight on the pool: a LIFO
// readiness stack of node ids plus the shared in-degree counters. The
// stack is LIFO on purpose — popping the most recently enabled node walks
// a shard depth-first through consecutive stages, the order that keeps its
// block and operand slabs in near memory. In-degrees are decremented with
// atomic CAS (Add); the stack and the termination count are under mu so
// idle participants can sleep on cond instead of spinning.
type dagState struct {
	mu        sync.Mutex
	cond      *sync.Cond
	stack     []int32
	remaining int // nodes not yet executed
	nparts    int // participants draining this DAG
	waiting   int // participants asleep in cond.Wait
	indeg     []atomic.Int32
	succ      [][]int32
	prio      []float64 // optional dispatch priorities (see runDAG)
	run       func(ws *workerState, node int32)
}

// loop participates in a DAG drain until every node has executed: pop a
// ready node, run it, decrement successors' in-degrees, and push the newly
// ready ones. A participant that finds the stack empty while nodes remain
// sleeps; the participant that completes the last node (or pushes new
// ready nodes) wakes the others. Deadlock-free for any worker count ≥ 1:
// the stack is only empty while some node is executing, and executing a
// node always either pushes successors or decrements remaining to zero.
func (d *dagState) loop(ws *workerState) {
	for {
		d.mu.Lock()
		for len(d.stack) == 0 && d.remaining > 0 {
			// Every participant asleep with nodes remaining means no node
			// can ever become ready again: a cycle or an in-degree
			// miscount. Fail loudly (like the serial path) instead of
			// hanging the whole pool.
			if d.waiting+1 == d.nparts {
				d.mu.Unlock()
				panic(fmt.Sprintf("legion: wavefront DAG stalled with %d nodes unreachable (cycle?)", d.remaining))
			}
			d.waiting++
			d.cond.Wait()
			d.waiting--
		}
		if d.remaining == 0 {
			d.mu.Unlock()
			return
		}
		n := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		d.mu.Unlock()

		d.run(ws, n)

		var ready []int32
		for _, sn := range d.succ[n] {
			if d.indeg[sn].Add(-1) == 0 {
				ready = append(ready, sn)
			}
		}
		if d.prio != nil && len(ready) > 1 {
			sortReady(ready, d.prio)
		}
		d.mu.Lock()
		d.stack = append(d.stack, ready...)
		d.remaining--
		if d.remaining == 0 || len(ready) > 0 {
			d.cond.Broadcast()
		}
		d.mu.Unlock()
	}
}

// sortReady orders a batch of newly ready nodes so the highest-priority
// node is popped first from the LIFO stack: ascending priority, ties
// broken by descending id (the lowest id pops first, matching the
// unprioritized drain). Priorities only reshape the schedule — any drain
// order is correct — so this is a heuristic, applied per ready batch.
func sortReady(nodes []int32, prio []float64) {
	sort.Slice(nodes, func(i, j int) bool {
		pi, pj := prio[nodes[i]], prio[nodes[j]]
		if pi != pj {
			return pi < pj
		}
		return nodes[i] > nodes[j]
	})
}

// runDAG executes a dependence DAG of nnodes nodes to completion: roots
// (in-degree zero) seed a readiness stack, and the submitting goroutine —
// joined by up to nw-1 woken workers — drains it. With a single-worker
// pool the whole DAG runs on the submitter in LIFO depth-first order with
// no locking in the executor's way; results are independent of the
// schedule (the DAG's edges are the only ordering the caller relies on).
//
// prio, when non-nil, biases the drain: among ready nodes the one with
// the highest priority (the feedback layer passes measured critical-path
// lengths) is dispatched first. With prio nil the order is exactly the
// historical LIFO depth-first drain.
func (e *executor) runDAG(nnodes int, indeg []atomic.Int32, succ [][]int32, prio []float64, run func(ws *workerState, node int32)) {
	if nnodes == 0 {
		return
	}
	// Seed roots in descending id order so the lowest (first entry, first
	// shard) node pops first.
	var roots []int32
	for n := nnodes - 1; n >= 0; n-- {
		if indeg[n].Load() == 0 {
			roots = append(roots, int32(n))
		}
	}
	if prio != nil {
		sortReady(roots, prio)
	}
	if e.nw <= 1 {
		// Serial fast path: plain LIFO stack on the submitter.
		sub := &e.ws[e.nw]
		stack := roots
		done := 0
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			run(sub, n)
			done++
			if prio == nil {
				for i := len(succ[n]) - 1; i >= 0; i-- {
					if sn := succ[n][i]; indeg[sn].Add(-1) == 0 {
						stack = append(stack, sn)
					}
				}
			} else {
				mark := len(stack)
				for _, sn := range succ[n] {
					if indeg[sn].Add(-1) == 0 {
						stack = append(stack, sn)
					}
				}
				sortReady(stack[mark:], prio)
			}
		}
		if done != nnodes {
			panic(fmt.Sprintf("legion: wavefront DAG stalled at %d/%d nodes (cycle?)", done, nnodes))
		}
		return
	}
	e.pooled.Add(1)
	d := &dagState{stack: roots, remaining: nnodes, indeg: indeg, succ: succ, prio: prio, run: run}
	d.cond = sync.NewCond(&d.mu)
	b := &execBatch{dag: d}
	woken := e.nw
	if nnodes-1 < woken {
		woken = nnodes - 1
	}
	d.nparts = woken + 1
	e.startWorkers()
	b.wg.Add(woken)
	for w := 0; w < woken; w++ {
		e.wake[w] <- b
	}
	e.run(b, e.nw, e.nw)
	b.wg.Wait()
}

// runShards dispatches one sharded stage onto the pool: shard indices
// [0, nshards) are the claimable units, spread across the woken workers
// and the submitting goroutine exactly like chunk ranges (idle
// participants steal whole shards from the back of others' ranges). With
// a single-worker pool the submitter runs every shard in ascending order —
// strict shard-major, the cache-friendly order the scheduler wants on a
// serial host.
func (e *executor) runShards(nshards int, fn func(ws *workerState, shard int)) {
	if e.nw <= 1 || nshards <= 1 {
		sub := &e.ws[e.nw]
		for s := 0; s < nshards; s++ {
			fn(sub, s)
		}
		return
	}
	e.pooled.Add(1)
	b := &execBatch{shardRun: fn}
	e.dispatch(b, nshards)
}

// SetExecPolicy selects the real-mode executor implementation. It must be
// called before any task executes and is not safe to change mid-stream;
// the per-point policy exists as the chunked executor's bit-identity
// oracle.
func (rt *Runtime) SetExecPolicy(p ExecPolicy) { rt.policy = p }

// ExecPolicyOf returns the active executor policy.
func (rt *Runtime) ExecPolicyOf() ExecPolicy { return rt.policy }

// ExecStats returns a snapshot of the executor's activity counters.
func (rt *Runtime) ExecStats() ExecStats {
	e := rt.exec
	if e == nil {
		return ExecStats{}
	}
	return ExecStats{
		InlineTasks: e.inline.Load(),
		PoolTasks:   e.pooled.Load(),
		Chunks:      e.chunks.Load(),
		Steals:      e.steals.Load(),
	}
}

// SetWorkerPool resizes the persistent executor to n workers. The default
// is GOMAXPROCS; tests and benchmarks set explicit sizes to exercise the
// pooled path independently of host parallelism. ModeReal only; must be
// called before any task executes.
func (rt *Runtime) SetWorkerPool(n int) {
	if rt.exec == nil || n < 1 {
		return
	}
	rt.exec.shutdown()
	rt.workers = n
	rt.exec = newExecutor(n, machine.HostExec(n))
}

// attachExecutor wires a fresh executor to a ModeReal runtime and
// arranges for its workers to exit when the runtime is collected —
// benchmarks and tests create many short-lived runtimes, and parked
// workers must not accumulate.
func (rt *Runtime) attachExecutor() {
	rt.exec = newExecutor(rt.workers, machine.HostExec(rt.workers))
	rt.plans = map[*kir.Kernel]*taskPlan{}
	runtime.SetFinalizer(rt, func(r *Runtime) { r.exec.shutdown() })
}
