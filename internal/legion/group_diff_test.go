package legion

import (
	"math"
	"math/rand"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
)

// elemKernel is a one-loop element-wise kernel storing e into param dst,
// iterating over param ext's local extents.
func elemKernel(name string, nparams, ext, dst int, e *kir.Expr) *kir.Kernel {
	k := kir.NewKernel(name, nparams)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", ExtRef: ext,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: dst, E: e}}})
	return k
}

// randomGroupStream runs one seeded random task stream on a fresh runtime
// and returns the bits of every value it observed — each mid-stream host
// read, then every store at the end — and the runtime's shard counters.
// The stream depends on the seed alone, so two runtimes given the same
// seed must observe the same bits.
//
// The stream mixes every access pattern a shard group resolves into DAG
// edges: aligned tiled reads and writes, a shifted tiling (halo reads and
// misaligned writes), replicated reads of vectors and scalars, in-place
// updates, sum and max reductions into scalar stores (same-op chains and
// op changes on one store), and host reads that drain the group
// mid-stream. Every task gets a fresh kernel, so groups run until a host
// read or the end of the stream drains them.
func randomGroupStream(seed int64, shards, workers int, fb FeedbackMode) ([]uint64, ShardStats) {
	const points, ext, nvec, nscal = 5, 8, 3, 2
	n := points * ext
	rt := New(ModeReal, machine.DefaultA100(points))
	rt.SetShards(shards)
	rt.SetWorkerPool(workers)
	rt.SetFeedback(fb)
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	// shifted is parent element i+1 at view element i: reading through it
	// leaks one element into the next shard's block, and writing through
	// it lands one element into it. head is the aligned view of the same
	// extent.
	shifted := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{1}, nil, nil)
	head := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{0}, nil, nil)
	none := ir.ReplicateOver(launch)
	var fact ir.Factory
	vec := make([]*ir.Store, nvec)
	for i := range vec {
		vec[i] = fact.NewStore("v", []int{n})
	}
	scal := make([]*ir.Store, nscal)
	for i := range scal {
		scal[i] = fact.NewStore("s", []int{1})
	}

	rng := rand.New(rand.NewSource(seed))
	var seen []uint64
	observe := func(vs ...float64) {
		for _, v := range vs {
			seen = append(seen, math.Float64bits(v))
		}
	}
	two := func() (int, int) {
		a := rng.Intn(nvec)
		return a, (a + 1 + rng.Intn(nvec-1)) % nvec
	}
	exec := func(name string, k *kir.Kernel, args ...ir.Arg) {
		rt.Execute(&ir.Task{Name: name, Launch: launch, Kernel: k, Args: args})
	}
	for i, v := range vec {
		exec("rand", randomKernel(uint64(seed)*31+uint64(i), ext), ir.Arg{Store: v, Part: tp, Priv: ir.Write})
	}
	for task, ntasks := 0, 8+rng.Intn(33); task < ntasks; task++ {
		switch rng.Intn(8) {
		case 0: // aligned read -> aligned write
			s, d := two()
			exec("math", mathKernel(ext),
				ir.Arg{Store: vec[s], Part: tp, Priv: ir.Read},
				ir.Arg{Store: vec[d], Part: tp, Priv: ir.Write})
		case 1: // halo read: the shifted view feeds an aligned write
			s, d := two()
			exec("shift", mathKernel(ext),
				ir.Arg{Store: vec[s], Part: shifted, Priv: ir.Read},
				ir.Arg{Store: vec[d], Part: head, Priv: ir.Write})
		case 2: // misaligned write through the shifted view
			s, d := two()
			exec("shiftw", mathKernel(ext),
				ir.Arg{Store: vec[s], Part: head, Priv: ir.Read},
				ir.Arg{Store: vec[d], Part: shifted, Priv: ir.Write})
		case 3: // replicated vector read plus a replicated scalar read
			s, d := two()
			e := kir.Binary(kir.OpAdd,
				kir.Binary(kir.OpMul, kir.Load(0), kir.Const(0.5)),
				kir.Binary(kir.OpMul, kir.LoadScalar(2), kir.Const(1e-3)))
			exec("rep", elemKernel("rep", 3, 1, 1, e),
				ir.Arg{Store: vec[s], Part: none, Priv: ir.Read},
				ir.Arg{Store: vec[d], Part: tp, Priv: ir.Write},
				ir.Arg{Store: scal[rng.Intn(nscal)], Part: none, Priv: ir.Read})
		case 4, 5: // reduction into a scalar, aligned or halo read
			part := ir.Partition(tp)
			if rng.Intn(3) == 0 {
				part = shifted
			}
			op, red := kir.RedSum, ir.RedSum
			if rng.Intn(3) == 0 {
				op, red = kir.RedMax, ir.RedMax
			}
			exec("red", reduceKernel(ext, op),
				ir.Arg{Store: vec[rng.Intn(nvec)], Part: part, Priv: ir.Read},
				ir.Arg{Store: scal[rng.Intn(nscal)], Part: none, Priv: ir.Reduce, Red: red})
		case 6: // in-place update
			d := rng.Intn(nvec)
			e := kir.Binary(kir.OpAdd, kir.Binary(kir.OpMul, kir.Load(0), kir.Const(0.75)), kir.Const(0.125))
			exec("inplace", elemKernel("inplace", 1, 0, 0, e),
				ir.Arg{Store: vec[d], Part: tp, Priv: ir.ReadWrite})
		case 7: // host read: drains the group mid-stream
			if rng.Intn(2) == 0 {
				observe(rt.ReadAll(vec[rng.Intn(nvec)])...)
			} else {
				v, _ := rt.ReadScalar(scal[rng.Intn(nscal)])
				observe(v)
			}
		}
	}
	for _, v := range vec {
		observe(rt.ReadAll(v)...)
	}
	for _, s := range scal {
		v, _ := rt.ReadScalar(s)
		observe(v)
	}
	return seen, rt.ShardStatsSnapshot()
}

// TestShardGroupDifferential: random shard-group streams are bit-identical
// to the unsharded runtime at every shard count, worker pool and feedback
// mode, and every drain completes. Shard counts 2, 3 and 4 over a
// five-point launch give blocks of unequal height.
func TestShardGroupDifferential(t *testing.T) {
	var total ShardStats
	for seed := int64(1); seed <= 16; seed++ {
		ref, _ := randomGroupStream(seed, 1, 1, FeedbackOff)
		for _, shards := range []int{2, 3, 4} {
			for _, workers := range []int{1, 2, 4} {
				for _, fb := range []FeedbackMode{FeedbackOn, FeedbackOff} {
					got, st := randomGroupStream(seed, shards, workers, fb)
					total.Groups += st.Groups
					total.HaloNodes += st.HaloNodes
					total.FoldNodes += st.FoldNodes
					if len(got) != len(ref) {
						t.Fatalf("seed=%d shards=%d workers=%d feedback=%v observed %d values, want %d",
							seed, shards, workers, fb, len(got), len(ref))
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("seed=%d shards=%d workers=%d feedback=%v value %d = %v, want bit-identical %v",
								seed, shards, workers, fb, i, math.Float64frombits(got[i]), math.Float64frombits(ref[i]))
						}
					}
				}
			}
		}
	}
	if total.Groups == 0 || total.HaloNodes == 0 || total.FoldNodes == 0 {
		t.Fatalf("streams exercised no groups, halo nodes or fold nodes: %+v", total)
	}
}
