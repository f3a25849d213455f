package legion_test

// Regression test for a group DAG cycle: two workloads sharing stores in
// one context once merged an unrelated reduction into the fold node of a
// stage-numbered DAG that an earlier entry already waited on, so the fold
// waited on units chained after the waiter — a cycle that stalled the
// drain. Fold nodes are now per entry, and the result must match the
// unsharded run bit for bit.

import (
	"math"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
)

func TestWavefrontBarrierStageNoCycle(t *testing.T) {
	run := func(shards int) float64 {
		cfg := core.DefaultConfig(4)
		cfg.Shards = shards
		rt := core.New(cfg)
		ctx := cunum.NewContext(rt)
		A := apps.BuildPoisson2D(ctx, 12)
		b := ctx.Ones(A.Rows())
		cg := apps.NewCG(ctx, A, b, false)
		cg.Iterate(2)
		ctx.Flush()
		s := apps.NewBiCGSTAB(ctx, A, b)
		s.Iterate(2)
		ctx.Flush()
		rt.Legion().DrainShardGroup()
		return s.ResidualNorm()
	}
	ref := run(1)
	if math.IsNaN(ref) {
		t.Fatalf("reference residual is NaN")
	}
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != ref {
			t.Fatalf("shards=%d residual %v, want bit-identical %v", shards, got, ref)
		}
	}
}
