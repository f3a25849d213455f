package core

import (
	"testing"

	"diffuse/internal/ir"
)

// memoWindow builds an n-task element-wise chain s0 -> s1 -> ... -> sn,
// each task with its own fresh kernel object, as an unfused library
// stream submits it.
func memoWindow(r *Runtime, n int) []*ir.Task {
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tile := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	prev := r.NewStore("s", []int{16})
	w := make([]*ir.Task, n)
	for i := range w {
		next := r.NewStore("s", []int{16})
		w[i] = &ir.Task{Name: "k", Launch: launch, Kernel: elemKernel(2, 1), Args: []ir.Arg{
			{Store: prev, Part: tile, Priv: ir.Read}, {Store: next, Part: tile, Priv: ir.Write}}}
		prev = next
	}
	return w
}

// TestAnalyzeMemoHitAllocFree: once the memo holds a window's plan,
// analyzing an equal window again — liveness snapshot, key building and
// lookup — allocates nothing.
func TestAnalyzeMemoHitAllocFree(t *testing.T) {
	r := newTestRuntime(true)
	w := memoWindow(r, 32)
	r.mu.Lock()
	defer r.mu.Unlock()
	plan := r.analyze(w, nil)
	if allocs := testing.AllocsPerRun(100, func() {
		if r.analyze(w, nil) != plan {
			t.Fatal("warm analyze returned a different plan")
		}
	}); allocs != 0 {
		t.Fatalf("warm memo hit allocates %.1f times per analyze", allocs)
	}
	if r.stats.MemoMisses != 1 || r.stats.MemoHits != 101 {
		t.Fatalf("memo misses/hits = %d/%d, want 1/101", r.stats.MemoMisses, r.stats.MemoHits)
	}
}

// BenchmarkAnalyzeMemoHit times the per-window front-end cost on a memo
// hit for an 80-task window (the SWE window size).
func BenchmarkAnalyzeMemoHit(b *testing.B) {
	r := newTestRuntime(true)
	w := memoWindow(r, 80)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.analyze(w, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.analyze(w, nil)
	}
}
