package legion

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
)

// dagHarness builds an arbitrary DAG and runs it through executor.runDAG,
// recording completion order.
type dagHarness struct {
	n     int
	succ  [][]int32
	indeg []atomic.Int32
	prio  []float64 // optional dispatch priorities

	mu    sync.Mutex
	order []int32
}

func newDAGHarness(n int, edges [][2]int32) *dagHarness {
	h := &dagHarness{n: n, succ: make([][]int32, n), indeg: make([]atomic.Int32, n)}
	for _, e := range edges {
		h.succ[e[0]] = append(h.succ[e[0]], e[1])
		h.indeg[e[1]].Add(1)
	}
	return h
}

func (h *dagHarness) run(t *testing.T, workers int) {
	t.Helper()
	e := newExecutor(workers, machine.HostExec(workers))
	defer e.shutdown()
	e.runDAG(true, h.n, h.indeg, h.succ, h.prio, func(_ *workerState, node int32) {
		h.mu.Lock()
		h.order = append(h.order, node)
		h.mu.Unlock()
	})
	if len(h.order) != h.n {
		t.Fatalf("runDAG with %d workers completed %d/%d nodes", workers, len(h.order), h.n)
	}
	pos := make([]int, h.n)
	for i, nd := range h.order {
		pos[nd] = i
	}
	for from, succs := range h.succ {
		for _, to := range succs {
			if pos[from] >= pos[int(to)] {
				t.Fatalf("runDAG with %d workers violated edge %d->%d (order %v)", workers, from, to, h.order)
			}
		}
	}
}

// TestRunDAGRespectsEdges: every node runs exactly once and no edge is
// violated, on a single-worker pool (the submitter drains alone) and on
// multi-worker pools (run with -race).
func TestRunDAGRespectsEdges(t *testing.T) {
	edges := [][2]int32{
		// Two chains with cross links and a join — the (shard, stage)
		// wavefront shape in miniature.
		{0, 1}, {1, 2}, {3, 4}, {4, 5},
		{0, 4}, {3, 1}, {2, 6}, {5, 6},
	}
	for _, workers := range []int{1, 2, 4} {
		h := newDAGHarness(7, edges)
		h.run(t, workers)
	}
}

// TestRunDAGDeepSerialIsLIFO: a lone participant drains a free-running
// chain depth-first — the order the group DAG relies on for operand reuse
// across consecutive sweeps.
func TestRunDAGDeepSerialIsLIFO(t *testing.T) {
	// Shards: chains 0->1->2 and 3->4->5, plus upwind edges 0->4, 1->5.
	// Depth-first from the lowest root must finish chain one before
	// touching node 4.
	h := newDAGHarness(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 4}, {1, 5}})
	h.run(t, 1)
	pos := make(map[int32]int)
	for i, nd := range h.order {
		pos[nd] = i
	}
	if !(pos[1] < pos[3] && pos[2] < pos[3]) {
		t.Fatalf("serial drain is not depth-first: order %v", h.order)
	}
}

// wavefrontStream mirrors shard_test.go's stream (random -> math -> sum +
// max reductions) under an explicit worker count.
func wavefrontStream(t *testing.T, shards, workers int) ([]float64, float64, float64, ShardStats) {
	t.Helper()
	const points, ext, iters = 8, 64, 3
	rt := New(ModeReal, machine.DefaultA100(points))
	rt.SetShards(shards)
	if workers > 0 {
		rt.SetWorkerPool(workers)
	}
	var fact ir.Factory
	n := points * ext
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	// Shifted view: element i of the view is parent element i+1, so each
	// point's read tile leaks one element into the next shard's block —
	// the halo pattern.
	shifted := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{1}, nil, nil)
	yout := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{0}, nil, nil)
	x := fact.NewStore("x", []int{n})
	y := fact.NewStore("y", []int{n})
	sum := fact.NewStore("sum", []int{1})
	mx := fact.NewStore("max", []int{1})
	for i := 0; i < iters; i++ {
		rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: randomKernel(uint64(7+i), ext),
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
		// Shifted read: the halo pattern, so the math task lands behind a
		// halo edge rather than a pointwise one.
		rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: mathKernel(ext),
			Args: []ir.Arg{
				{Store: x, Part: shifted, Priv: ir.Read},
				{Store: y, Part: yout, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "sum", Launch: launch, Kernel: reduceKernel(ext, kir.RedSum),
			Args: []ir.Arg{
				{Store: y, Part: tp, Priv: ir.Read},
				{Store: sum, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum}}})
		rt.Execute(&ir.Task{Name: "max", Launch: launch, Kernel: reduceKernel(ext, kir.RedMax),
			Args: []ir.Arg{
				{Store: y, Part: tp, Priv: ir.Read},
				{Store: mx, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedMax}}})
	}
	sv, _ := rt.ReadScalar(sum)
	mv, _ := rt.ReadScalar(mx)
	return rt.ReadAll(y), sv, mv, rt.ShardStatsSnapshot()
}

// TestWavefrontMatchesUnsharded: the group DAG drain is bit-identical to
// the unsharded runtime — state and order-sensitive FP reductions — across
// shard counts and worker counts (including the single-worker pool the
// GOMAXPROCS=1 CI leg exercises), and its stats show the DAG actually ran:
// halo nodes for the shifted read, fold nodes for the reductions.
func TestWavefrontMatchesUnsharded(t *testing.T) {
	refY, refSum, refMax, _ := wavefrontStream(t, 1, 0)
	for _, shards := range []int{2, 4} {
		for _, workers := range []int{1, 4} {
			y, sum, mx, st := wavefrontStream(t, shards, workers)
			if st.Groups == 0 || st.WavefrontNodes == 0 || st.WavefrontEdges == 0 {
				t.Fatalf("sharded run did not build DAGs: %+v", st)
			}
			if st.HaloNodes == 0 {
				t.Fatalf("shifted-partition read produced no halo nodes: %+v", st)
			}
			if st.FoldNodes == 0 {
				t.Fatalf("reductions produced no fold nodes: %+v", st)
			}
			if sum != refSum || mx != refMax {
				t.Fatalf("shards=%d workers=%d reductions %v/%v, want %v/%v",
					shards, workers, sum, mx, refSum, refMax)
			}
			for i := range refY {
				if y[i] != refY[i] {
					t.Fatalf("shards=%d workers=%d y[%d] = %v, want %v", shards, workers, i, y[i], refY[i])
				}
			}
		}
	}
}

// TestWavefrontShardsOneBuildsNoDAG: with a single shard the group
// machinery never engages, so the DAG path stays idle — the "no edges"
// degenerate case.
func TestWavefrontShardsOneBuildsNoDAG(t *testing.T) {
	_, _, _, st := wavefrontStream(t, 1, 0)
	if st.Groups != 0 || st.WavefrontNodes != 0 || st.WavefrontEdges != 0 {
		t.Fatalf("shards=1 built groups or DAG edges: %+v", st)
	}
}

// TestWavefrontStaggeredSameOpReductions: two same-op reductions into one
// store, with an unrelated halo dependence between them, must have their
// folds ordered — the later fold node waits on the earlier one, since both
// read-modify-write the same destination cell — and later readers must
// observe both contributions. Regression test: the stage-numbered DAG this
// one replaced once let the two folds race.
func TestWavefrontStaggeredSameOpReductions(t *testing.T) {
	const points, ext = 4, 32
	n := points * ext
	run := func(shards, workers int) (float64, *shardGroup) {
		rt := New(ModeReal, machine.DefaultA100(points))
		rt.SetShards(shards)
		rt.SetWorkerPool(workers)
		var fact ir.Factory
		launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
		tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
		shifted := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{1}, nil, nil)
		yout := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{0}, nil, nil)
		x := fact.NewStore("x", []int{n})
		y := fact.NewStore("y", []int{n})
		s := fact.NewStore("s", []int{1})
		// rand(x); sum(x)->s; math(x shifted)->y; sum(y)->s: the second
		// sum joins the first's op behind a halo dependence.
		rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: randomKernel(41, ext),
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "sumx", Launch: launch, Kernel: reduceKernel(ext, kir.RedSum),
			Args: []ir.Arg{
				{Store: x, Part: tp, Priv: ir.Read},
				{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum}}})
		rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: mathKernel(ext),
			Args: []ir.Arg{
				{Store: x, Part: shifted, Priv: ir.Read},
				{Store: y, Part: yout, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "sumy", Launch: launch, Kernel: reduceKernel(ext, kir.RedSum),
			Args: []ir.Arg{
				{Store: y, Part: tp, Priv: ir.Read},
				{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum}}})
		g := rt.group // inspect before the read drains it
		v, _ := rt.ReadScalar(s)
		return v, g
	}
	ref, _ := run(1, 1)
	for _, workers := range []int{1, 4} {
		v, g := run(4, workers)
		if g == nil {
			t.Fatal("tasks did not group")
		}
		// The drain resolved every entry's plan, so the DAG rebuilds as it ran.
		d := g.buildWavefrontDAG(4)
		fold := map[int32]int32{}
		for id, nd := range d.nodes {
			if nd.kind == wfFold {
				fold[nd.entry] = int32(id)
			}
		}
		f1, ok1 := fold[1]
		f3, ok3 := fold[3]
		if !ok1 || !ok3 || len(fold) != 2 {
			t.Fatalf("want fold nodes for entries 1 and 3 only, got %v", fold)
		}
		if !slices.Contains(d.succ[f1], f3) {
			t.Fatalf("entry 3's fold node does not wait on entry 1's: succ(fold 1) = %v", d.succ[f1])
		}
		if v != ref {
			t.Fatalf("workers=%d staggered reductions: %v, want bit-identical %v", workers, v, ref)
		}
	}
}
