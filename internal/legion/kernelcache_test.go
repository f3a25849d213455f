package legion

import (
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
)

// TestKernelCacheBoundedOverFreshKernels: an unfused stream mints a fresh
// kernel object per task. The kernel cache compiles the first and serves
// every later one, and when every task's body differs it clears at
// maxKernels instead of growing with the stream.
func TestKernelCacheBoundedOverFreshKernels(t *testing.T) {
	rt := New(ModeReal, machine.DefaultA100(4))
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	s := fact.NewStore("s", []int{16})
	fill := func(k *kir.Kernel) {
		rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: k,
			Args: []ir.Arg{{Store: s, Part: tile4(launch, 16), Priv: ir.Write}}})
	}
	const tasks = 10000
	for i := 0; i < tasks; i++ {
		fill(fillKernel(3))
	}
	if n := len(rt.kernels); n != 1 {
		t.Fatalf("%d identical fresh kernels left %d cache entries, want 1", tasks, n)
	}
	if st := rt.CodegenStatsSnapshot(); st.CacheMisses != 1 || st.CacheHits != tasks-1 {
		t.Fatalf("cache hits/misses = %d/%d, want %d/1", st.CacheHits, st.CacheMisses, tasks-1)
	}
	for i := 0; i < tasks; i++ {
		fill(fillKernel(float64(i)))
		if n := len(rt.kernels); n > maxKernels {
			t.Fatalf("after %d distinct kernels the cache holds %d entries, bound %d", i+1, n, maxKernels)
		}
	}
	for i, v := range rt.ReadAll(s) {
		if v != tasks-1 {
			t.Fatalf("s[%d] = %g, want %d", i, v, tasks-1)
		}
	}
}

// TestKernelCacheSeparatesLocalMasks: kernels that differ only in which
// parameters are task-local share a fingerprint but not a compiled form
// (the local parameter needs a task-local buffer in one and a region in
// the other), so they must not share a cache entry.
func TestKernelCacheSeparatesLocalMasks(t *testing.T) {
	rt := New(ModeReal, machine.DefaultA100(4))
	mk := func(local bool) *kir.Kernel {
		k := kir.NewKernel("twostep", 3)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "a", Ext: []int{4}, ExtRef: 1,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Binary(kir.OpAdd, kir.Load(0), kir.Const(1))}}})
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "b", Ext: []int{4}, ExtRef: 2,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 2, E: kir.Load(1)}}})
		if local {
			k.MarkLocal(1)
		}
		return k
	}
	dist, local := mk(false), mk(true)
	if dist.Fingerprint() != local.Fingerprint() {
		t.Fatal("test premise: Local must not enter the fingerprint")
	}
	cd, cl := rt.Compiled(dist), rt.Compiled(local)
	if cd == cl {
		t.Fatal("kernels differing only in Local share one compiled form")
	}
	if !cl.Kernel.Local[1] || cd.Kernel.Local[1] {
		t.Fatal("cached compiled forms carry the wrong Local masks")
	}
	if rt.Compiled(mk(true)) != cl || rt.Compiled(mk(false)) != cd {
		t.Fatal("fresh kernels with equal CompileKey miss the cache")
	}
}

// TestSetCodegenFollowsCachedKernels: toggling the backend detaches the
// programs of cached kernels and lowers them again on the way back.
func TestSetCodegenFollowsCachedKernels(t *testing.T) {
	rt := New(ModeReal, machine.DefaultA100(4))
	c := rt.Compiled(fillKernel(1))
	if !c.HasCodegen() {
		t.Fatal("codegen-on compile attached no program")
	}
	rt.SetCodegen(CodegenOff)
	if c.HasCodegen() || rt.ProgramsCached() != 0 {
		t.Fatal("codegen off left a program attached")
	}
	rt.SetCodegen(CodegenOn)
	if !c.HasCodegen() || rt.ProgramsCached() != 1 {
		t.Fatal("codegen back on did not lower the cached kernel again")
	}
}
