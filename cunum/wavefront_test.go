package cunum_test

import (
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
)

func wavefrontCtx(shards int, fused bool) *cunum.Context {
	cfg := core.DefaultConfig(8)
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(8)
	cfg.Enabled = fused
	cfg.Shards = shards
	return cunum.NewContext(core.New(cfg))
}

// chainState runs a block-banded matvec chain (the wavefront workload
// shape: BlockMatVec + shifted-window BlockMatVecAcc, deep dependent
// sweeps) chased by chained sum/max reductions, and returns the final
// state bits plus both reduction values.
func chainState(t *testing.T, shards int, fused bool, dt cunum.DType) ([]float64, float64, float64, legion.ShardStats) {
	t.Helper()
	ctx := wavefrontCtx(shards, fused)
	const n, bt = 256, 16
	D := ctx.RandomT(dt, 11, n, bt).MulC(1.0 / (2 * bt)).Keep()
	L := ctx.RandomT(dt, 12, n, bt).MulC(1.0 / (2 * bt)).Keep()
	x := ctx.EmptyT(dt, n+bt).Keep()
	cunum.ApplyOpInto("fill", x.Slice([]int{bt}, []int{bt + n}).Temp(), nil, 1)
	for it := 0; it < 2; it++ {
		for k := 0; k < 4; k++ {
			xn := ctx.EmptyT(dt, n+bt).Keep()
			cunum.BlockMatVecAcc(D, x.Slice([]int{bt}, []int{bt + n}).Temp(), xn.Slice([]int{bt}, []int{bt + n}).Temp())
			cunum.BlockMatVecAcc(L, x.Slice([]int{0}, []int{n}).Temp(), xn.Slice([]int{bt}, []int{bt + n}).Temp())
			x.Free()
			x = xn
		}
		ctx.Flush()
	}
	live := x.Slice([]int{bt}, []int{bt + n})
	sum := live.Temp().Sum().Future()
	mx := x.Slice([]int{bt}, []int{bt + n}).Temp().Max().Future()
	got := x.Slice([]int{bt}, []int{bt + n}).Temp().ToHost()
	st := ctx.Runtime().Legion().ShardStatsSnapshot()
	return got, sum.Value(), mx.Value(), st
}

// TestWavefrontChainBitIdentical is the scheduling contract of the group
// DAG drain, at the cunum level: the deep block-banded chain — including
// order-sensitive floating-point sum reductions — is bit-identical to the
// unsharded run at Shards=2 and 4, for f64 and f32, fused and unfused.
func TestWavefrontChainBitIdentical(t *testing.T) {
	for _, dt := range []cunum.DType{cunum.F64, cunum.F32} {
		for _, fused := range []bool{false, true} {
			ref, refSum, refMax, _ := chainState(t, 1, fused, dt)
			for _, shards := range []int{2, 4} {
				got, sum, mx, st := chainState(t, shards, fused, dt)
				if st.Groups == 0 || st.WavefrontNodes == 0 {
					t.Fatalf("dt=%v fused=%v shards=%d: drained no DAG groups: %+v", dt, fused, shards, st)
				}
				if sum != refSum || mx != refMax {
					t.Fatalf("dt=%v fused=%v shards=%d reductions %v/%v, want bit-identical %v/%v",
						dt, fused, shards, sum, mx, refSum, refMax)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("dt=%v fused=%v shards=%d x[%d] = %v, want %v", dt, fused, shards, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestWavefrontReductionForcesBarrierStage: a group containing a
// reduction must fold in a fold node — later readers wait on the fold,
// not just on the reducing units — and produce the unsharded values.
func TestWavefrontReductionForcesBarrierStage(t *testing.T) {
	run := func(shards int) (float64, legion.ShardStats) {
		ctx := wavefrontCtx(shards, false)
		x := ctx.Random(21, 512).Keep()
		var v float64
		for it := 0; it < 3; it++ {
			// sum(x) feeds the next iteration's scale — a reduction with a
			// dependent reader inside the same drained group.
			s := x.Sum().Future()
			y := x.MulC(0.5).Keep()
			x.Free()
			x = y
			ctx.Flush()
			v = s.Value()
		}
		return v, ctx.Runtime().Legion().ShardStatsSnapshot()
	}
	refV, _ := run(1)
	gotV, st := run(4)
	if gotV != refV {
		t.Fatalf("reduction value %v at shards=4, want bit-identical %v", gotV, refV)
	}
	if st.Groups > 0 && st.FoldNodes == 0 {
		t.Fatalf("grouped reductions produced no fold nodes: %+v", st)
	}
}

// TestWavefrontReshardMidChain: a halo-misaligned repartition in the
// middle of a stencil chain — Reshard drains the buffered group, bumps
// the store's generation, and the chain continues under the new
// decomposition with results bit-identical to the unsharded run.
func TestWavefrontReshardMidChain(t *testing.T) {
	run := func(shards int) ([]float64, legion.ShardStats) {
		ctx := wavefrontCtx(shards, false)
		const n = 128
		u := ctx.Arange(n).MulC(0.01).Keep()
		for it := 0; it < 4; it++ {
			left := u.Slice([]int{0}, []int{n - 2})
			right := u.Slice([]int{2}, []int{n})
			un := ctx.Zeros(n).Keep()
			cunum.AddInto(un.Slice([]int{1}, []int{n - 1}).Temp(), left.Temp(), right.Temp())
			u.Free()
			u = un
			if it == 1 {
				// Mid-chain repartition: the group drains, the generation
				// bumps, and later sweeps regroup under the new block
				// decomposition.
				u.Reshard(2)
			}
		}
		ctx.Flush()
		got := u.ToHost()
		return got, ctx.Runtime().Legion().ShardStatsSnapshot()
	}
	ref, _ := run(1)
	for _, shards := range []int{2, 4} {
		got, st := run(shards)
		if st.Groups < 2 {
			t.Fatalf("shards=%d: Reshard did not split the chain into multiple groups: %+v", shards, st)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("shards=%d u[%d] = %v, want bit-identical %v", shards, i, got[i], ref[i])
			}
		}
	}
}

// TestWavefrontTwoReductionsCycleRepro: a reduction into S1, a reader of
// S1, then an independent reduction into S2 in one group. The
// stage-numbered DAG once merged the second reduction into the first's
// fold node, which the reader waited on while chained before the second
// reduction's units — a cycle that stalled the drain.
func TestWavefrontTwoReductionsCycleRepro(t *testing.T) {
	run := func(shards int) float64 {
		ctx := wavefrontCtx(shards, false)
		a := ctx.Random(1, 512).Keep()
		b := ctx.Random(2, 512).Keep()
		s1 := a.Sum().Keep()
		y := a.Mul(s1).Keep()
		s2 := b.Sum().Keep()
		ctx.Flush()
		return y.ToHost()[0] + s2.ToHost()[0]
	}
	ref := run(1)
	if got := run(2); got != ref {
		t.Fatalf("shards=2: %v, want bit-identical %v", got, ref)
	}
}
