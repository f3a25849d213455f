package legion

import (
	"sync/atomic"

	"diffuse/internal/kir"
)

// The runtime side of the compiled-kernel (codegen) backend. Programs
// live on the kernels of the runtime's one kernel cache (Runtime.Compiled):
// each cached kir.Compiled is lowered once and carries its program, so one
// program serves every task whose kernel has the same CompileKey — unfused
// streams mint a fresh kernel object per task every iteration and still
// hit. Unlike task plans, compiled kernels hold no region references, so
// the free-epoch invalidation that guards plans is irrelevant here: a
// compiled kernel outlives any store.

// CodegenMode toggles the compiled-kernel backend. The zero value is on —
// codegen is the default tier, the interpreter the reference oracle and
// fallback.
type CodegenMode int

// Codegen modes.
const (
	// CodegenOn lowers every ModeReal kernel through the closure backend
	// (loops the backend cannot take stay on the interpreter per-loop).
	CodegenOn CodegenMode = iota
	// CodegenOff runs every kernel fully interpreted — the bit-identical
	// reference configuration benchmarks compare against.
	CodegenOff
)

// maxKernels bounds the kernel cache exactly like maxPlans bounds the
// plan cache: cleared wholesale on overflow rather than LRU-tracked,
// since steady-state working sets are tiny and an overflow means an
// unbounded-kernel-shape workload where any eviction policy thrashes.
const maxKernels = 2048

// CodegenStats is a snapshot of the backend's activity counters.
type CodegenStats struct {
	// TasksCompiled / TasksInterpreted count index-task executions whose
	// kernel did / did not have at least one codegen-lowered loop.
	TasksCompiled    int64
	TasksInterpreted int64
	// CacheHits / CacheMisses count kernel-cache lookups by CompileKey
	// while codegen is on (a miss compiles and lowers the kernel).
	CacheHits   int64
	CacheMisses int64
}

// codegenCounters holds the live counters. Cache hits/misses are bumped
// under rt.mu (Runtime.Compiled), task counts under execMu (the three
// executor paths); atomics keep the snapshot getter lock-free and the
// two lock domains independent.
type codegenCounters struct {
	tasksCompiled    atomic.Int64
	tasksInterpreted atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
}

// SetCodegen selects the execution backend. The cached kernels follow
// the switch: turning codegen off detaches their programs, so a runtime
// toggled mid-stream genuinely reverts to the interpreter, and turning
// it back on lowers them again.
func (rt *Runtime) SetCodegen(m CodegenMode) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.codegen = m
	for _, c := range rt.kernels {
		switch {
		case m == CodegenOff:
			c.AttachProgram(nil)
		case rt.mode == ModeReal && c.Program() == nil:
			c.AttachProgram(kir.Codegen(c))
		}
	}
}

// Codegen returns the active backend mode.
func (rt *Runtime) Codegen() CodegenMode {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.codegen
}

// CodegenStatsSnapshot returns the backend's activity counters.
func (rt *Runtime) CodegenStatsSnapshot() CodegenStats {
	return CodegenStats{
		TasksCompiled:    rt.cgStats.tasksCompiled.Load(),
		TasksInterpreted: rt.cgStats.tasksInterpreted.Load(),
		CacheHits:        rt.cgStats.cacheHits.Load(),
		CacheMisses:      rt.cgStats.cacheMisses.Load(),
	}
}

// ProgramsCached returns the number of compiled kernels resident in the
// kernel cache with a codegen program attached — the shared asset a
// multi-tenant server amortizes across tenants.
func (rt *Runtime) ProgramsCached() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, c := range rt.kernels {
		if c.Program() != nil {
			n++
		}
	}
	return n
}

// countBackend records which backend an index task's kernel executes on.
// Called once per index task by each executor path (chunked, per-point,
// sharded), under execMu.
func (rt *Runtime) countBackend(c *kir.Compiled) {
	if c.HasCodegen() {
		rt.cgStats.tasksCompiled.Add(1)
	} else {
		rt.cgStats.tasksInterpreted.Add(1)
	}
}
