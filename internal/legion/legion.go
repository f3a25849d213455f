// Package legion is the task-based runtime substrate underneath Diffuse —
// the stand-in for the Legion runtime system of the paper. It accepts
// streams of index tasks over partitioned stores (after Diffuse's fusion
// layer has processed them), maintains coherence of distributed data via
// last-writer tracking, and executes point tasks either:
//
//   - for real (ModeReal): point tasks run over actual float64 buffers on
//     a persistent, NumCPU-sized worker pool (executor.go). The launch
//     domain is grouped into cache-friendly chunks of contiguous colors
//     sized by the machine cost model; workers claim chunks from their own
//     range and steal from others' when dry, tasks cheaper than a dispatch
//     run inline on the submitter, and binding state (regions, strides,
//     tiling coefficients, scratch) is pre-resolved once per task shape
//     and reused across the fused task stream. Reductions accumulate into
//     per-point partial cells folded in point order at the barrier, so
//     results are bit-identical under any scheduling. The v1 executor —
//     one goroutine per point task — survives as ExecPerPoint, the
//     chunked executor's bit-identity oracle.
//   - simulated (ModeSim): no data is allocated; the task stream drives
//     the machine cost model (internal/machine) so weak-scaling studies up
//     to 128 simulated GPUs run on a laptop.
//
// Both modes honour identical privilege/coherence semantics and share one
// task protocol end to end (the same Execute entry point, dependence
// analysis, and compiled kernels), so a fusion decision that is legal in
// one is legal in the other.
//
// With SetShards > 1 (core.Config.Shards), real-mode execution is
// additionally *sharded* (shard.go): tasks buffer into groups that run
// shard-major over leading-axis blocks — one task plan per shard on the
// work-stealing executor, halo-exchange stage boundaries between
// dependent tasks whose partitions misalign, and shard-local region
// instances bounding each shard's accesses. Results stay bit-identical
// to unsharded execution at every shard count.
package legion

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
)

// Mode selects real or simulated execution.
type Mode int

// Execution modes.
const (
	// ModeReal executes point tasks over real buffers.
	ModeReal Mode = iota
	// ModeSim drives the machine cost model without allocating data.
	ModeSim
)

// CSRProvider supplies the CSR structure payload of SpMV loops: the local
// rows for a given color (real execution) and aggregate statistics
// including the value array's element type (cost model).
type CSRProvider interface {
	Local(color int) *kir.CSRLocal
	Stats() (rowsPerPoint, nnzPerPoint float64)
	ValDType() kir.DType
}

// Payload is the auxiliary, dependence-free data attached to a task:
// per-payload-key CSR structures.
type Payload struct {
	CSR map[int]CSRProvider
}

// MergePayloads combines the payloads of fused tasks.
func MergePayloads(tasks []*ir.Task) *Payload {
	var out *Payload
	for _, t := range tasks {
		p, ok := t.Payload.(*Payload)
		if !ok || p == nil {
			continue
		}
		if out == nil {
			out = &Payload{CSR: map[int]CSRProvider{}}
		}
		for k, v := range p.CSR {
			out.CSR[k] = v
		}
	}
	return out
}

// region is the backing storage for one store: a typed buffer allocated at
// the store's element width.
type region struct {
	data kir.Buffer
}

// Runtime is the Legion-analogue runtime instance.
type Runtime struct {
	mode Mode
	sim  *machine.Sim

	// execMu serializes Execute, FreeStore, and the host-side data
	// accessors (ReadAll/ReadAt/WriteAll) so concurrent Diffuse sessions
	// never race on region contents or coherence metadata; writers and
	// pendRed are guarded by it.
	execMu sync.Mutex
	// writers tracks the partitions whose writes produced each store's
	// current contents (a covering write resets the set) — a lightweight
	// stand-in for Legion's per-subregion version/coherence metadata.
	writers map[ir.StoreID][]ir.Partition
	pendRed map[ir.StoreID]ir.ReduceOp // stores with uncombined reductions

	mu       sync.Mutex // guards regions, compiled, progs, and codegen
	regions  map[ir.StoreID]*region
	compiled map[*kir.Kernel]*kir.Compiled

	// Codegen-backend state (see codegen.go): the active mode, the
	// fingerprint-keyed program cache, and the activity counters.
	codegen CodegenMode
	progs   map[string]*kir.CodegenProgram
	cgStats codegenCounters

	// Feedback-directed scheduling state (see feedback.go): the active
	// mode and the fingerprint-keyed calibration classes (map guarded by
	// execMu; entries lock internally so pool workers can observe
	// timings without it). fbInterpRoutes counts backend-pick reroutes.
	feedback       FeedbackMode
	cal            map[calKey]*machine.Calibrated
	fbInterpRoutes atomic.Int64

	workers int
	scratch sync.Pool // per-point-baseline scratch recycling

	// Real-mode executor state (see executor.go): the persistent worker
	// pool, the active scheduling policy, the cached execution plans, and
	// the free-epoch that lazily invalidates their region resolution (all
	// guarded by execMu, like everything else on the execution path).
	exec      *executor
	policy    ExecPolicy
	plans     map[*kir.Kernel]*taskPlan
	freeEpoch int64

	// Sharded execution state (see shard.go): the configured shard count,
	// the drain scheduler (wavefront.go), the buffered task group, frees
	// deferred while the group references their stores, and the activity
	// counters (guarded by execMu; ShardUnits is updated atomically by
	// pool workers).
	shards         int
	wavefront      WavefrontMode
	group          *shardGroup
	deferredFrees  []ir.StoreID
	deferredFreeIn map[ir.StoreID]bool
	shardStats     ShardStats

	// Distributed execution state (see dist.go): the parent-side backend
	// that forwards the execution surface to rank processes, and — on a
	// rank — this process's rank id, the peer transport, and the drained-
	// group sequence number that namespaces message tags.
	remote   RemoteBackend
	distRank int
	distTx   HaloTransport
	distSeq  uint64

	// ExecutedTasks counts index tasks that reached the runtime (post
	// fusion); used by the Fig. 9 accounting.
	ExecutedTasks int64
	// MovedBytes accumulates simulated communication volume.
	MovedBytes float64
	// Trace, when set, observes every task as it executes (the
	// diffuse-trace tool and tests).
	Trace func(t *ir.Task)
}

// New creates a runtime. cfg configures the simulated machine; in ModeReal
// only cfg.GPUs is consulted (as the default launch width).
func New(mode Mode, cfg machine.Config) *Runtime {
	rt := &Runtime{
		mode:     mode,
		sim:      machine.NewSim(cfg),
		regions:  map[ir.StoreID]*region{},
		writers:  map[ir.StoreID][]ir.Partition{},
		pendRed:  map[ir.StoreID]ir.ReduceOp{},
		compiled: map[*kir.Kernel]*kir.Compiled{},
		progs:    map[string]*kir.CodegenProgram{},
		workers:  runtime.GOMAXPROCS(0),
	}
	rt.scratch.New = func() any { return kir.NewScratch() }
	if mode == ModeReal {
		rt.attachExecutor()
	}
	return rt
}

// Mode returns the execution mode.
func (rt *Runtime) Mode() Mode { return rt.mode }

// Sim exposes the machine simulation (valid in both modes; only advanced
// in ModeSim).
func (rt *Runtime) Sim() *machine.Sim { return rt.sim }

// SimTime returns the simulated makespan.
func (rt *Runtime) SimTime() float64 { return rt.sim.Time() }

// Compiled returns (compiling and caching on first use) the executable
// form of a kernel. The fusion layer optimizes fused kernels before they
// arrive here; unfused kernels compile as-is, mirroring the precompiled
// task variants of standard cuPyNumeric.
func (rt *Runtime) Compiled(k *kir.Kernel) *kir.Compiled {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if c, ok := rt.compiled[k]; ok {
		return c
	}
	c := kir.Compile(k)
	// Second compilation stage: in ModeReal with codegen on, attach the
	// closure-backend program (cached by kernel fingerprint; codegen.go).
	if rt.mode == ModeReal && rt.codegen == CodegenOn {
		rt.attachProgramLocked(c)
	}
	rt.compiled[k] = c
	return c
}

// regionFor returns (allocating if needed) the buffer of a store.
func (rt *Runtime) regionFor(s *ir.Store, initRed ir.ReduceOp) *region {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	r, ok := rt.regions[s.ID()]
	if !ok {
		r = &region{data: kir.AllocBuffer(s.DType(), s.Size())}
		if initRed == ir.RedMax || initRed == ir.RedMin {
			r.data.Fill(redIdentity(initRed))
		}
		rt.regions[s.ID()] = r
	}
	return r
}

func redIdentity(op ir.ReduceOp) float64 {
	switch op {
	case ir.RedMax:
		return kir.RedMax.Identity()
	case ir.RedMin:
		return kir.RedMin.Identity()
	default:
		return 0
	}
}

// FreeStore drops the region of a dead store and advances the free-epoch:
// cached execution plans re-resolve their regions on next use instead of
// executing against an orphaned buffer. Bumping an epoch (rather than
// scanning the plan cache) keeps frees O(1) — iterative apps free dozens
// of temporaries per iteration. When a buffered shard group still
// references the store (its tasks have not executed yet), the free is
// deferred until the group drains — draining the whole group on every
// temporary's death would dissolve exactly the groups sharding exists to
// build.
func (rt *Runtime) FreeStore(id ir.StoreID) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.remote != nil {
		rt.remote.FreeStore(id)
		return
	}
	if rt.group != nil && rt.group.refs[id] > 0 && !rt.deferredFreeIn[id] {
		if rt.deferredFreeIn == nil {
			rt.deferredFreeIn = map[ir.StoreID]bool{}
		}
		rt.deferredFreeIn[id] = true
		rt.deferredFrees = append(rt.deferredFrees, id)
		rt.shardStats.DeferredFrees++
		return
	}
	rt.freeStoreLocked(id)
}

// freeStoreLocked performs the actual free. Callers hold execMu.
func (rt *Runtime) freeStoreLocked(id ir.StoreID) {
	delete(rt.writers, id)
	delete(rt.pendRed, id)
	delete(rt.deferredFreeIn, id)
	rt.freeEpoch++
	rt.mu.Lock()
	delete(rt.regions, id)
	rt.mu.Unlock()
}

// ReadScalar returns element 0 of the store's region. In ModeSim data does
// not exist: ok is false and the value 0 — callers that need a real value
// must check ok instead of silently treating simulated reads as zeros.
func (rt *Runtime) ReadScalar(s *ir.Store) (v float64, ok bool) {
	return rt.ReadAt(s, 0)
}

// ReadAt returns the element at the given flat offset into the store's
// canonical row-major layout — the deferred-read primitive scalar futures
// resolve through once the producer chain has been flushed. In ModeSim no
// data exists; ok reports whether the value is real.
func (rt *Runtime) ReadAt(s *ir.Store, off int) (v float64, ok bool) {
	if rt.mode == ModeSim {
		return 0, false
	}
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.remote != nil {
		return rt.remote.ReadAt(s, off)
	}
	rt.drainShardGroupLocked()
	r := rt.regionFor(s, ir.RedNone)
	return r.data.Get(off), true
}

// ReadAll copies out the store contents widened to float64 (tests and
// examples; ModeReal).
func (rt *Runtime) ReadAll(s *ir.Store) []float64 {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.remote != nil {
		return rt.remote.ReadAll(s)
	}
	rt.drainShardGroupLocked()
	r := rt.regionFor(s, ir.RedNone)
	return r.data.ToF64()
}

// ReadAll32 copies out the store contents as float32 — exact for f32
// stores, rounded for wider ones (host transfer without the 2x widening).
func (rt *Runtime) ReadAll32(s *ir.Store) []float32 {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.remote != nil {
		return rt.remote.ReadAll32(s)
	}
	rt.drainShardGroupLocked()
	r := rt.regionFor(s, ir.RedNone)
	return r.data.ToF32()
}

// WriteAll overwrites the store contents, rounding each element to the
// store's dtype (tests and examples; ModeReal).
func (rt *Runtime) WriteAll(s *ir.Store, data []float64) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.remote != nil {
		rt.remote.WriteAll(s, data)
		return
	}
	rt.drainShardGroupLocked()
	r := rt.regionFor(s, ir.RedNone)
	if len(data) != r.data.Len() {
		panic(fmt.Sprintf("legion: WriteAll size mismatch %d != %d", len(data), r.data.Len()))
	}
	r.data.CopyFromF64(data)
	rt.markHostWrite(s)
}

// WriteAll32 overwrites the store contents from float32 host data.
func (rt *Runtime) WriteAll32(s *ir.Store, data []float32) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.remote != nil {
		rt.remote.WriteAll32(s, data)
		return
	}
	rt.drainShardGroupLocked()
	r := rt.regionFor(s, ir.RedNone)
	if len(data) != r.data.Len() {
		panic(fmt.Sprintf("legion: WriteAll32 size mismatch %d != %d", len(data), r.data.Len()))
	}
	r.data.CopyFromF32(data)
	rt.markHostWrite(s)
}

// markHostWrite records a host-side covering write for coherence purposes.
// Callers hold execMu.
func (rt *Runtime) markHostWrite(s *ir.Store) {
	rt.writers[s.ID()] = []ir.Partition{ir.ReplicateOver(ir.MakeRect(ir.Point{0}, ir.Point{1}))}
}

// Execute runs one index task to completion (issue-order execution; the
// fusion layer above has already extracted the available parallelism into
// point tasks). Under sharded execution (SetShards > 1, ModeReal) the
// task may instead join the buffered shard group and execute at the next
// barrier — host reads and writes drain the group, so deferral is never
// observable through the data.
func (rt *Runtime) Execute(t *ir.Task) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	rt.ExecutedTasks++
	if rt.Trace != nil {
		rt.Trace(t)
	}
	if rt.remote != nil {
		// Distributed parent: the post-fusion stream is forwarded to the
		// rank processes, which own all data and re-derive the schedule
		// (control replication); no local coherence or execution happens.
		rt.remote.Execute(t)
		return
	}
	rt.coherence(t)
	if rt.mode == ModeSim {
		rt.executeSim(t)
		rt.updateWriters(t)
		return
	}
	if rt.shardActive() {
		if rt.groupable(t) {
			// A kernel already buffered would collide with its cached
			// plan's reduction partials: finish the group, then start a
			// fresh one with this task (memoized streams replay the same
			// kernel object once per iteration, so iteration boundaries
			// drain naturally). A shard-generation change on any shared
			// store — a Reshard between the two submissions — is likewise
			// a group boundary.
			if rt.group != nil && (rt.group.kernels[t.Kernel] || rt.group.genConflict(t)) {
				rt.drainShardGroupLocked()
			}
			rt.enqueueShard(t)
			rt.updateWriters(t)
			return
		}
		// Incompatible task: everything buffered runs first (program
		// order), then the task itself through the unsharded path.
		rt.shardStats.Fallbacks++
		rt.drainShardGroupLocked()
	}
	rt.executeReal(t)
	rt.updateWriters(t)
}

// coherence inspects read accesses against last-writer partitions and, in
// ModeSim, charges the induced communication. This models Legion's
// dynamic dependence analysis and copy generation: reading data through a
// partition different from the one it was produced with requires data
// movement.
func (rt *Runtime) coherence(t *ir.Task) {
	n := t.Launch.Size()
	for _, a := range t.Args {
		if !a.Priv.Reads() && !a.Priv.Reduces() {
			continue
		}
		// Pending reduction: a read after reductions forces the runtime to
		// combine partial reduction instances (an allreduce for the
		// replicated scalars our libraries use).
		if _, ok := rt.pendRed[a.Store.ID()]; ok && a.Priv.Reads() {
			if rt.mode == ModeSim {
				rt.sim.Communicate(machine.CollAllReduce, rt.sim.Cfg.GPUs, float64(a.Store.SizeBytes()))
			}
			delete(rt.pendRed, a.Store.ID())
		}
		if !a.Priv.Reads() {
			continue
		}
		ws := rt.writers[a.Store.ID()]
		if len(ws) == 0 || anyEqual(ws, a.Part) {
			// Never written, or produced through exactly this partition:
			// the data a point task reads is already local (other writers
			// contributed at most negligible slivers once one matches).
			continue
		}
		if rt.mode != ModeSim {
			continue
		}
		bytes := rt.commBytes(a, ws)
		if a.HaloBytes > 0 && bytes > a.HaloBytes {
			bytes = a.HaloBytes
		}
		if bytes <= 0 {
			continue
		}
		rt.MovedBytes += bytes * float64(n)
		switch {
		case a.HaloBytes > 0:
			rt.sim.Communicate(machine.CollHalo, n, a.HaloBytes)
		case a.Part.Kind() == ir.KindNone:
			rt.sim.Communicate(machine.CollAllGather, n, bytes)
		default:
			rt.sim.Communicate(machine.CollHalo, n, bytes)
		}
		// The moved data is now resident under the reader's partition:
		// record it as a valid instance so repeated reads (e.g. a matrix
		// reused every iteration) pay only once, as Legion's cached
		// physical instances do. Halo-hinted reads stay per-iteration:
		// their producer is rewritten between uses anyway.
		if a.HaloBytes == 0 {
			id := a.Store.ID()
			ws := append(rt.writers[id], a.Part)
			if len(ws) > maxWriters {
				ws = append([]ir.Partition{ws[0]}, ws[len(ws)-maxWriters+1:]...)
			}
			rt.writers[id] = ws
		}
	}
}

func anyEqual(ws []ir.Partition, p ir.Partition) bool {
	for _, w := range ws {
		if w.Equal(p) {
			return true
		}
	}
	return false
}

// commBytes estimates, per participating GPU, the bytes that must move to
// satisfy reading a.Store through a.Part given the writer partitions that
// produced its contents. The estimate samples a representative interior
// color and credits the best-covering writer, keeping the computation
// independent of data size.
func (rt *Runtime) commBytes(a ir.Arg, ws []ir.Partition) float64 {
	parent := a.Store.Bounds()
	switch a.Part.Kind() {
	case ir.KindNone:
		// Replicated read of distributed data: each GPU must gather the
		// remote fraction; charge the per-GPU local share (the collective
		// model multiplies by (n-1)).
		n := 1
		for _, w := range ws {
			if s := w.ColorSpace().Size(); s > n {
				n = s
			}
		}
		if n <= 1 {
			return 0
		}
		return float64(a.Store.SizeBytes()) / float64(n)
	default:
		// Differently-tiled read (e.g. halo): bytes = |read sub-store|
		// minus the locally available part under the best writer.
		c := interiorColor(a.Part.ColorSpace())
		readR := a.Part.SubRect(c, parent)
		best := 0
		for _, w := range ws {
			if !w.ColorSpace().Contains(c) {
				continue
			}
			if ov := readR.Intersect(w.SubRect(c, parent)).Size(); ov > best {
				best = ov
			}
		}
		missing := readR.Size() - best
		if missing < 0 {
			missing = 0
		}
		return float64(missing * a.Store.ElemSize())
	}
}

func interiorColor(colors Rect) ir.Point {
	c := make(ir.Point, colors.Rank())
	for d := range c {
		c[d] = (colors.Lo[d] + colors.Hi[d]) / 2
	}
	return c
}

// Rect is re-exported locally for brevity.
type Rect = ir.Rect

// updateWriters records the partitions that produced each store's current
// contents: a covering write owns the whole store and resets the set;
// partial writes (interior views, boundary strips) accumulate, capped to
// bound the metadata like Legion's version-number compaction.
const maxWriters = 8

func (rt *Runtime) updateWriters(t *ir.Task) {
	for _, a := range t.Args {
		switch {
		case a.Priv.Writes():
			id := a.Store.ID()
			if a.Part.Covers(a.Store.Bounds()) {
				rt.writers[id] = []ir.Partition{a.Part}
			} else if !anyEqual(rt.writers[id], a.Part) {
				ws := append(rt.writers[id], a.Part)
				if len(ws) > maxWriters {
					// Keep the (typically covering) first writer and the
					// most recent partial writers.
					kept := append([]ir.Partition{ws[0]}, ws[len(ws)-maxWriters+1:]...)
					ws = kept
				}
				rt.writers[id] = ws
			}
			delete(rt.pendRed, a.Store.ID())
		case a.Priv.Reduces():
			rt.pendRed[a.Store.ID()] = a.Red
			rt.writers[a.Store.ID()] = []ir.Partition{a.Part}
		}
	}
}
