package legion

// Sharded execution mode. When a runtime is configured with S > 1 shards
// (core.Config.Shards), incoming real-mode index tasks are not executed
// eagerly: compatible tasks accumulate into a *shard group*, and the group
// executes when a barrier forces it — a host-side read or write, a free of
// a store the group references, an incompatible task, or an explicit
// DrainShardGroup. The group is scheduled *shard-major* ("owner computes"):
// the launch domain of every task is decomposed into S contiguous
// leading-axis blocks, and each (task, shard) pair is one unit of the
// group's dependence DAG, drained on the existing work-stealing executor
// so a shard walks consecutive tasks over its block while other shards
// proceed independently.
//
// Why: consecutive tasks that sweep the same large operands (the multi-RHS
// sweeps of internal/bench's Jacobi-MRHS workload) touch each block S
// times in quick succession instead of streaming the full operand once per
// task, which is worth >1.3x wall-clock on bandwidth-bound streams whose
// working set exceeds the cache/TLB reach. Fusion achieves the same
// locality *inside* a fused kernel; sharding recovers it for the task
// streams fusion cannot merge (and composes with it across fused tasks).
//
// Dependences and halo exchange: shard-major order runs a later task's
// shard s before an earlier task's shard s+1, which is only legal when no
// data flows between them. The group therefore drains as a dependence DAG
// (wavefront.go) built from entry-ordered facts alone: every (task, shard)
// unit waits on the same shard's previous unit; every dependence whose
// partitions misalign — a stencil reading its producer through shifted
// views, a replicated read of a distributed write, SpMV neighborhoods —
// adds edges between exactly the producer and consumer shards whose spans
// overlap, read-after-write ones through a halo-exchange node; and every
// reducing task gets a fold node that completes its per-point partials
// (in point order) after all of its shards and before any later access to
// the store. Every edge runs from an earlier entry to a later one, or from
// a unit to its own entry's fold node, so the DAG is acyclic by
// construction.
//
// Shard-local region instances: each shard's point tasks access store data
// through a bounds-enforcing sub-buffer of the store's region covering
// exactly the shard's footprint (its block plus the halo margin its
// accesses reach). On this single-address-space host the instances
// alias the canonical region, so the halo-exchange step moves no bytes —
// it is a synchronization point plus coherence bookkeeping, and the
// simulated runtime charges the byte movement for the same access pattern
// through its coherence model (legion.coherence, machine.CollHalo). On a
// distributed substrate the same step is where the boundary rows would
// travel. The aliased instances are still load-bearing: a point task
// reaching outside its shard's declared footprint faults immediately
// (slice bounds) instead of silently reading another shard's data.
//
// Determinism: the point decomposition, the per-point reduction partial
// cells, and the point-order fold are identical for every shard count, so
// results — including floating-point reductions — are bit-identical across
// Shards=1,2,4,... and across any work-stealing schedule.

import (
	"math"
	"sync/atomic"
	"time"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// ShardStats counts sharded-execution activity since the runtime was
// created (all zero when sharding is off).
type ShardStats struct {
	// Groups is the number of shard groups drained.
	Groups int64
	// GroupedTasks is the number of index tasks executed through groups.
	GroupedTasks int64
	// HaloExchanges is the number of misaligned read dependences: reads
	// through a partition other than the one the store's latest in-group
	// write used.
	HaloExchanges int64
	// HaloElemsMoved estimates the elements a distributed runtime would
	// move at those boundaries (zero copies happen on this shared-memory
	// host; see the package comment).
	HaloElemsMoved int64
	// ShardUnits is the number of (task, shard) execution units run.
	ShardUnits int64
	// Fallbacks is the number of tasks that could not join a group and
	// executed through the unsharded path.
	Fallbacks int64
	// DeferredFrees is the number of store frees postponed until the
	// group referencing them drained.
	DeferredFrees int64

	// Group DAG counters (see wavefront.go).

	// WavefrontNodes is the number of DAG nodes dispatched ((task, shard)
	// units, halo-exchange nodes, and fold nodes).
	WavefrontNodes int64
	// WavefrontEdges is the number of dependence edges those nodes were
	// connected by.
	WavefrontEdges int64
	// HaloNodes is the number of first-class halo-exchange nodes — one
	// per (misaligned dependence, consumer shard) with at least one
	// cross-shard producer.
	HaloNodes int64
	// FoldNodes is the number of reduction fold nodes: one per grouped
	// task that reduces.
	FoldNodes int64

	// Distributed counters (see dist.go; all zero unless this runtime is
	// a rank of a multi-process distributed runtime).

	// DistMsgs is the number of peer messages this rank sent (halos,
	// reduction partials, write-back spans).
	DistMsgs int64
	// DistBytesMoved is the payload bytes of those messages.
	DistBytesMoved int64
}

// groupEntry is one index task buffered in the shard group.
type groupEntry struct {
	task *ir.Task
	plan *taskPlan
	comp *kir.Compiled
}

// partEntry records the latest entry that accessed a store through part.
type partEntry struct {
	part  ir.Partition
	entry int // index into shardGroup.entries
}

// storeAccess tracks the in-group access history of one store: the full
// per-partition history on both sides, because a reader must be ordered
// after *every* earlier writer whose footprint it can touch (a partial
// overwrite leaves older writers' data visible), and a writer after every
// earlier reader, not just the latest ones.
type storeAccess struct {
	writes   []partEntry // distinct write partitions, latest entry each
	reads    []partEntry // distinct read partitions, latest entry each
	redEntry int         // latest entry reducing to the store, -1 if none
	redOp    ir.ReduceOp
}

// latestWrite returns the most recent write record; ok is false when the
// store was never written in this group.
func (acc *storeAccess) latestWrite() (partEntry, bool) {
	best, ok := partEntry{entry: -1}, false
	for _, w := range acc.writes {
		if w.entry > best.entry {
			best, ok = w, true
		}
	}
	return best, ok
}

// recordAccess notes an access through part by the given entry in a
// per-partition history list, returning the updated list.
func recordAccess(list []partEntry, part ir.Partition, entry int) []partEntry {
	for i := range list {
		if list[i].part.Equal(part) {
			list[i].entry = entry
			return list
		}
	}
	return append(list, partEntry{part: part, entry: entry})
}

// foldDep is one "waits on a reduction fold" record: the fold node of
// entry red must complete before every unit of entry cons starts, or —
// with chain set, for a same-op reduction into the same store — before
// the fold node of cons runs.
type foldDep struct {
	red, cons int
	chain     bool
}

// shardGroup is the buffered task group of a sharded runtime.
type shardGroup struct {
	entries []groupEntry
	kernels map[*kir.Kernel]bool
	access  map[ir.StoreID]*storeAccess
	refs    map[ir.StoreID]int   // stores referenced by buffered tasks
	gens    map[ir.StoreID]int64 // shard generation each store entered with

	// DAG metadata (consumed by wavefront.go): the misaligned dependence
	// records between entries and the reduction-fold waits.
	deps  []ir.StageDep
	folds []foldDep
}

// maxGroupTasks caps the group; longer streams drain in slabs.
const maxGroupTasks = 4096

func newShardGroup() *shardGroup {
	return &shardGroup{
		kernels: map[*kir.Kernel]bool{},
		access:  map[ir.StoreID]*storeAccess{},
		refs:    map[ir.StoreID]int{},
		gens:    map[ir.StoreID]int64{},
	}
}

// genConflict reports whether the task observes a different shard
// generation than the group recorded for any shared store — a Reshard
// happened between the two submissions, and the group must drain so the
// runtime is free to move data between the decompositions (the runtime
// side of the fusion layer's repartition constraint; this holds even
// when pre-Reshard tasks were still buffered in a session window when
// the Reshard was issued).
func (g *shardGroup) genConflict(t *ir.Task) bool {
	for _, a := range t.Args {
		if gen, ok := g.gens[a.Store.ID()]; ok && gen != a.ShardGen {
			return true
		}
	}
	return false
}

func (g *shardGroup) acc(id ir.StoreID) *storeAccess {
	a, ok := g.access[id]
	if !ok {
		a = &storeAccess{redEntry: -1}
		g.access[id] = a
	}
	return a
}

// shardActive reports whether sharded execution applies to this runtime.
func (rt *Runtime) shardActive() bool {
	return rt.mode == ModeReal && rt.shards > 1
}

// SetShards configures the shard count of sharded execution. Like
// SetExecPolicy it must be called before any task executes; n <= 1
// disables sharding.
func (rt *Runtime) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	rt.shards = n
}

// Shards returns the configured shard count (>= 1).
func (rt *Runtime) Shards() int {
	if rt.shards < 1 {
		return 1
	}
	return rt.shards
}

// ShardStatsSnapshot returns a copy of the sharded-execution counters.
func (rt *Runtime) ShardStatsSnapshot() ShardStats {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	return rt.shardStats
}

// DrainShardGroup forces any buffered shard group to execute. Host-side
// reads and writes drain implicitly; explicit drains are needed only
// around operations the runtime cannot see (e.g. core.Runtime.Reshard).
func (rt *Runtime) DrainShardGroup() {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.remote != nil {
		rt.remote.Drain()
		return
	}
	rt.drainShardGroupLocked()
}

// groupable reports whether the task can ever join a shard group: a task
// with a compiled kernel and arguments the executor's binding recipes
// cover. A kernel object already buffered in the current group forces a
// drain first (plans — and their reduction partials — are keyed by
// kernel, so one kernel appears at most once per group); Execute handles
// that case by draining and starting a fresh group.
func (rt *Runtime) groupable(t *ir.Task) bool {
	if t.Kernel == nil || t.Launch.Rank() < 1 || t.Launch.Size() == 0 {
		return false
	}
	for _, a := range t.Args {
		switch a.Part.(type) {
		case *ir.NonePart, *ir.TilingPart:
		default:
			return false
		}
	}
	return true
}

// enqueueShard admits a task into the shard group, recording the
// entry-indexed dependence facts the group DAG resolves into per-shard
// edges at drain time. Callers hold execMu and have already checked
// groupable.
func (rt *Runtime) enqueueShard(t *ir.Task) {
	g := rt.group
	if g == nil {
		g = newShardGroup()
		rt.group = g
	}
	self := len(g.entries) // index this task will occupy

	// Misaligned dependences append a StageDep record naming the producer
	// entry: the DAG turns each record into edges between exactly the
	// (producer shard, consumer shard) pairs whose flat spans overlap.
	// Point-wise (equal-partition) dependences need no record — shard
	// blocks of equal partitions touch disjoint data, and the consumer's
	// own-shard chain already orders it after the producer.
	depStart, foldStart := len(g.deps), len(g.folds)
	dep := func(prod int, id ir.StoreID, kind ir.DepKind) {
		// One record per (producer, store, kind) suffices: edge
		// resolution intersects store-level union spans, so a second
		// record from another argument on the same store adds nothing
		// but duplicate DAG nodes and edges.
		for _, d := range g.deps[depStart:] {
			if d.Prod == prod && d.Store == id && d.Kind == kind {
				return
			}
		}
		g.deps = append(g.deps, ir.StageDep{Prod: prod, Cons: self, Store: id, Kind: kind})
	}
	fold := func(fd foldDep) {
		for _, f := range g.folds[foldStart:] {
			if f == fd {
				return
			}
		}
		g.folds = append(g.folds, fd)
	}
	for _, a := range t.Args {
		id := a.Store.ID()
		acc, seen := g.access[id]
		if !seen {
			continue
		}
		// A pending reduction's fold must complete before any later access
		// to the store. A same-op reduction only adds partials, so just its
		// fold chains behind the earlier one, keeping folds in entry order.
		if acc.redEntry >= 0 {
			chain := a.Priv.Reduces() && acc.redOp == a.Red
			fold(foldDep{red: acc.redEntry, cons: self, chain: chain})
		}
		if a.Priv.Reduces() {
			// The reduce's units only touch private partial cells; the
			// conflict is between the *fold* and earlier accesses, and the
			// fold node waits on every shard of this entry — whose
			// own-shard chains order it after every earlier entry on every
			// shard. No span records needed.
			continue
		}
		if a.Priv.Reads() {
			if lw, written := acc.latestWrite(); written && !lw.part.Equal(a.Part) {
				rt.recordHalo(t, a, lw.part)
			}
			// Order after every earlier writer this read can observe, not
			// just the latest: a partial overwrite leaves older writers'
			// rows visible through this read's footprint.
			for _, w := range acc.writes {
				if !w.part.Equal(a.Part) {
					dep(w.entry, id, ir.DepHalo)
				}
			}
		}
		if a.Priv.Writes() {
			for _, w := range acc.writes {
				if !w.part.Equal(a.Part) {
					dep(w.entry, id, ir.DepAnti)
				}
			}
			for _, r := range acc.reads {
				if !r.part.Equal(a.Part) {
					dep(r.entry, id, ir.DepAnti)
				}
			}
		}
	}

	// Record the task's own effects.
	for _, a := range t.Args {
		acc := g.acc(a.Store.ID())
		g.refs[a.Store.ID()]++
		if _, ok := g.gens[a.Store.ID()]; !ok {
			g.gens[a.Store.ID()] = a.ShardGen
		}
		switch {
		case a.Priv.Reduces():
			acc.redEntry = self
			acc.redOp = a.Red
		default:
			if a.Priv.Reads() {
				acc.reads = recordAccess(acc.reads, a.Part, self)
			}
			if a.Priv.Writes() {
				acc.writes = recordAccess(acc.writes, a.Part, self)
			}
		}
	}
	g.kernels[t.Kernel] = true
	g.entries = append(g.entries, groupEntry{task: t})
	if len(g.entries) >= maxGroupTasks {
		rt.drainShardGroupLocked()
	}
}

// recordHalo accounts one misaligned read dependence: the halo exchange
// it implies, and an estimate of the rows a
// distributed runtime would move there (reader footprint at an interior
// shard boundary minus the latest writer's, per boundary).
func (rt *Runtime) recordHalo(t *ir.Task, a ir.Arg, writePart ir.Partition) {
	rt.shardStats.HaloExchanges++
	parent := a.Store.Bounds()
	c := interiorColor(a.Part.ColorSpace())
	readR := a.Part.SubRect(c, parent)
	missing := readR.Size()
	// Credit the overlap with the writer's footprint at the same color
	// when the color spaces are comparable (a reader and writer launched
	// over different domains share no color to compare at — charge the
	// full read footprint, as a full repartition would).
	if ws := writePart.ColorSpace(); ws.Rank() == len(c) && ws.Contains(c) {
		if ov := readR.Intersect(writePart.SubRect(c, parent)).Size(); ov > 0 {
			missing -= ov
		}
	}
	if missing < 0 {
		missing = 0
	}
	seff := rt.shardsForLaunch(t.Launch)
	rt.shardStats.HaloElemsMoved += int64(missing * (seff - 1))
}

// shardsForLaunch returns the effective shard count of a launch domain:
// the configured count, capped by the leading-axis extent.
func (rt *Runtime) shardsForLaunch(launch ir.Rect) int {
	ext := launch.Hi[0] - launch.Lo[0]
	s := rt.Shards()
	if ext < s {
		s = ext
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardColorRange returns the contiguous index interval [lo, hi) of
// plan.colors owned by shard s: the colors whose leading coordinate falls
// in shard s's block of the launch domain (colors enumerate row-major, so
// leading-axis blocks are contiguous).
func shardColorRange(launch ir.Rect, ncolors, s, shards int) (lo, hi int) {
	ext := launch.Hi[0] - launch.Lo[0]
	if ext <= 0 {
		return 0, 0
	}
	rowW := ncolors / ext
	blo, bhi := ir.ShardBlock(s, shards, ext)
	return blo * rowW, bhi * rowW
}

// drainShardGroupLocked executes the buffered group through its
// dependence DAG, then processes frees deferred while the group pinned
// their stores. Callers hold execMu.
func (rt *Runtime) drainShardGroupLocked() {
	g := rt.group
	if g == nil {
		return
	}
	rt.group = nil
	if len(g.entries) > 0 {
		rt.shardStats.Groups++
		rt.shardStats.GroupedTasks += int64(len(g.entries))

		// Resolve every task's plan and compiled kernel up front (regions
		// may allocate; single-threaded here), then run the DAG.
		for i := range g.entries {
			e := &g.entries[i]
			e.comp = rt.Compiled(e.task.Kernel)
			rt.countBackend(e.comp)
			e.plan = rt.planFor(e.task, e.comp)
			e.plan.resetPartials(e.task, len(e.plan.colors))
		}
		rt.runWavefront(g)
	}

	// Frees deferred while the group referenced their stores.
	if len(rt.deferredFrees) > 0 {
		for _, id := range rt.deferredFrees {
			rt.freeStoreLocked(id)
		}
		rt.deferredFrees = rt.deferredFrees[:0]
	}
}

// runUnitShard executes one (task, shard) unit: the task's point tasks
// whose colors fall in the shard's leading-axis block, bound against
// shard-local region instances.
func (rt *Runtime) runUnitShard(u *groupEntry, ws *workerState, s, shards int) {
	plan := u.plan
	lo, hi := shardColorRange(u.task.Launch, len(plan.colors), s, shards)
	if lo >= hi {
		return
	}
	// Units run on pool workers, so the counter must not race with other
	// units or with snapshot readers.
	atomic.AddInt64(&rt.shardStats.ShardUnits, 1)
	payload, _ := u.task.Payload.(*Payload)
	ws.prepare(len(plan.args), payload)
	defer ws.release()

	// Shard-local instances: one bounds-enforcing sub-buffer per tiled
	// argument, covering exactly this shard's footprint (block plus the
	// halo margin its accesses reach). Replicated (None) arguments read the
	// canonical instance; reductions accumulate into per-point partials.
	insts := shardInstances(plan, lo, hi)

	// Sampled unit timing for the feedback layer: whole units are timed
	// (never points), into the shard-width calibration class.
	var t0 time.Time
	timed := plan.calShard != nil && plan.calShard.ShouldSample()
	if timed {
		t0 = time.Now()
	}
	for pi := lo; pi < hi; pi++ {
		bindPoint(plan, ws, pi, plan.colors[pi])
		for i := range plan.args {
			if inst := &insts[i]; !inst.buf.IsNil() {
				ws.pa.Bind[i].Rebase(inst.buf, inst.lo)
			}
		}
		if payload != nil && len(payload.CSR) > 0 {
			for k, prov := range payload.CSR {
				ws.pa.Payloads[k] = prov.Local(pi)
			}
		}
		u.comp.Execute(&ws.pa)
	}
	if timed {
		plan.calShard.Observe(time.Since(t0).Seconds(), hi-lo)
	}
}

// shardInst is one shard-local instance: an aliased sub-buffer of the
// canonical region covering flat elements [lo, hi).
type shardInst struct {
	buf kir.Buffer
	lo  int
}

// tiledShardSpan computes the tight flat-offset span a tiled argument's
// point tasks access over colors [lo, hi) — the single footprint
// computation shared by the shard-local instances executed against
// (shardInstances) and the wavefront DAG's edge elision (argShardSpan in
// wavefront.go). The two uses are correctness-coupled: an edge is elided
// exactly when spans prove disjointness, so the elision must see the same
// arithmetic the execution uses.
func tiledShardSpan(plan *taskPlan, ap *argPlan, lo, hi int) ir.Span {
	minBase, maxLast := math.MaxInt, -1
	for pi := lo; pi < hi; pi++ {
		c := ap.tp.Proj.Apply(plan.colors[pi])
		base, last, empty := ap.offBase, 0, false
		for d := range ap.tileCoef {
			cd := c[d]
			base += cd * ap.tileCoef[d]
			e := ap.tp.View[d] - cd*ap.tp.Tile[d]
			if e > ap.tp.Tile[d] {
				e = ap.tp.Tile[d]
			}
			if e <= 0 {
				empty = true
				break
			}
			last += (e - 1) * ap.accStr[d]
		}
		if empty {
			continue
		}
		if base < minBase {
			minBase = base
		}
		if base+last > maxLast {
			maxLast = base + last
		}
	}
	if maxLast < 0 || minBase > maxLast {
		return ir.Span{} // no elements accessed by this shard
	}
	return ir.Span{Lo: minBase, Hi: maxLast + 1}
}

// shardInstances computes the per-argument instances of one (task, shard)
// unit from the plan's binding coefficients: the tight flat-offset span
// the shard's point tasks access. Reduction cells, temporary-eliminated
// (local) arguments, and replicated arguments keep their existing binding.
func shardInstances(plan *taskPlan, lo, hi int) []shardInst {
	insts := make([]shardInst, len(plan.args))
	for i := range plan.args {
		ap := &plan.args[i]
		if ap.priv.Reduces() || ap.local || ap.isNone || ap.tp == nil {
			continue
		}
		sp := tiledShardSpan(plan, ap, lo, hi)
		if sp.Empty() {
			continue
		}
		insts[i] = shardInst{buf: ap.data.Slice(sp.Lo, sp.Hi), lo: sp.Lo}
	}
	return insts
}
