package legion

// The shard-group dependence DAG. A drained group runs as one DAG built
// from the entry-indexed records enqueueShard collects:
//
//   - every (task, shard) pair is a unit node; a shard's units are chained
//     in program order, so one shard's work is always issue-ordered and
//     cache-walks its own block depth-first;
//   - every misaligned dependence record is resolved into edges between
//     exactly the (producer shard, consumer shard) pairs whose flat spans
//     on the store overlap — a three-point stencil yields edges only to
//     the two neighbor shards, a replicated read yields edges to all;
//   - read-after-write edges route through a first-class halo-exchange
//     node (the point where a distributed runtime would move the boundary
//     rows; here it is a synchronization point plus accounting);
//   - every reducing entry gets a fold node: it waits on every shard of
//     its entry, and every later access to the store waits on it — except
//     a same-op reduction, whose own fold node chains behind it instead.
//
// Every edge runs from an earlier entry's node to a later entry's node, or
// from a unit to its own entry's fold node, so the DAG is acyclic by
// construction. Ready nodes are dispatched onto the persistent
// work-stealing executor with CAS-decremented in-degrees
// (executor.runDAG): shard 0 can be three sweeps deep in a chain while
// shard 3 is still on its first. On a single-worker executor the same DAG
// drains on the submitting goroutine in LIFO (depth-first) order — the
// order that keeps a shard's block and its operand slabs hot across
// consecutive sweeps.
//
// Determinism: unit nodes run the same point decomposition and shard
// instances under every schedule, reduction partials stay per-point, and
// folds of one store run in entry order, so results are bit-identical to
// unsharded execution under any schedule.

import (
	"sync/atomic"

	"diffuse/internal/ir"
)

// WavefrontMode is the type of core.Config.Wavefront. It exists only so
// the benchmark's tracer can keep forwarding that field through
// SetWavefront; shard groups always drain through their dependence DAG.
type WavefrontMode int

// WavefrontOn is the only WavefrontMode.
const WavefrontOn WavefrontMode = 0

// SetWavefront does nothing; it exists only for the benchmark tracer's
// call (see WavefrontMode).
func (rt *Runtime) SetWavefront(WavefrontMode) {}

// wfKind is the node kind of a wavefront DAG node.
type wfKind uint8

const (
	wfUnit wfKind = iota // one (task, shard) execution unit
	wfHalo               // halo-exchange synchronization point
	wfFold               // one reducing entry's partial fold
)

// wfNode is one node of the wavefront DAG. For units, entry/shard name the
// (task, shard) pair; for folds, entry is the reducing entry; halo nodes
// carry the consumer (entry, shard) pair plus, in aux, the index of the
// g.deps record they resolve — the distributed drain needs it to compute
// the boundary span the node moves.
type wfNode struct {
	kind  wfKind
	entry int32
	shard int32
	aux   int32
}

// wfDAG is a built wavefront plan: nodes, CAS-decremented in-degrees, and
// successor lists, plus the span cache the distributed drain reuses to
// compute transfer footprints (the same per-partition span intersection
// that elided the edges).
type wfDAG struct {
	nodes []wfNode
	indeg []atomic.Int32
	succ  [][]int32
	edges int64
	halos int64
	folds int64

	spans []*entrySpans // lazily computed per-entry spans (may hold nils)

	// haloID maps depIdx*shards+consumerShard to the halo node resolving
	// that (dependence record, consumer shard) pair — the sender side of
	// the distributed drain needs the node id to tag its messages.
	haloID map[int64]int32
}

func (d *wfDAG) addNode(n wfNode) int32 {
	d.nodes = append(d.nodes, n)
	d.succ = append(d.succ, nil)
	return int32(len(d.nodes) - 1)
}

func (d *wfDAG) addEdge(from, to int32) {
	d.succ[from] = append(d.succ[from], to)
	d.edges++
}

// entrySpans holds, for one entry, the flat span each (argument, shard)
// pair touches: spans[argIdx*shards+s]. Only computed for entries that
// participate in a dependence record.
type entrySpans struct {
	spans []ir.Span
}

// argShardSpan returns the tight flat-offset span argument i of the plan
// touches over colors [lo, hi): the whole store for replicated (None)
// arguments, the clipped tile union for tiled ones (tiledShardSpan — the
// same footprint arithmetic shardInstances executes against), and an
// empty span for local (temporary-eliminated) and reduction arguments,
// which touch no shared region data (reductions accumulate into private
// partial cells).
func argShardSpan(plan *taskPlan, i, lo, hi int) ir.Span {
	ap := &plan.args[i]
	if ap.priv.Reduces() || ap.local {
		return ir.Span{}
	}
	if ap.isNone {
		return ir.Span{Lo: 0, Hi: ap.store.Size()}
	}
	return tiledShardSpan(plan, ap, lo, hi)
}

// spansFor computes an entry's per-(argument, shard) spans.
func spansFor(u *groupEntry, shards int) *entrySpans {
	plan := u.plan
	es := &entrySpans{spans: make([]ir.Span, len(plan.args)*shards)}
	for s := 0; s < shards; s++ {
		lo, hi := shardColorRange(u.task.Launch, len(plan.colors), s, shards)
		if lo >= hi {
			continue
		}
		for i := range plan.args {
			es.spans[i*shards+s] = argShardSpan(plan, i, lo, hi)
		}
	}
	return es
}

// storeSpan returns the union span of every argument of the entry on the
// given store at the given shard.
func storeSpan(u *groupEntry, es *entrySpans, shards, s int, store ir.StoreID) ir.Span {
	var sp ir.Span
	for i := range u.plan.args {
		if u.plan.args[i].store.ID() == store {
			sp = sp.Union(es.spans[i*shards+s])
		}
	}
	return sp
}

// buildWavefrontDAG turns a drained group's dependence metadata into the
// executable DAG. Entries' plans must already be resolved.
func (g *shardGroup) buildWavefrontDAG(shards int) *wfDAG {
	nentries := len(g.entries)
	d := &wfDAG{}
	// Unit nodes first: node id of (entry e, shard s) is e*shards+s.
	for e := 0; e < nentries; e++ {
		for s := 0; s < shards; s++ {
			d.addNode(wfNode{kind: wfUnit, entry: int32(e), shard: int32(s)})
		}
	}
	unit := func(e, s int) int32 { return int32(e*shards + s) }

	// Program-order chain per shard: a shard's unit of entry e+1 waits on
	// its unit of entry e.
	for s := 0; s < shards; s++ {
		for e := 0; e+1 < nentries; e++ {
			d.addEdge(unit(e, s), unit(e+1, s))
		}
	}

	// Spans for the entries named by dependence records, computed lazily.
	d.spans = make([]*entrySpans, nentries)
	d.haloID = map[int64]int32{}
	spanOf := func(e, s int, store ir.StoreID) ir.Span {
		if d.spans[e] == nil {
			d.spans[e] = spansFor(&g.entries[e], shards)
		}
		return storeSpan(&g.entries[e], d.spans[e], shards, s, store)
	}

	// Cross-shard edges from the dependence records: consumer shard s
	// waits on exactly the producer shards whose spans its own span
	// overlaps. Same-shard pairs are covered by the chain. Read-after-
	// write records route through a first-class halo-exchange node.
	for di, dep := range g.deps {
		for s := 0; s < shards; s++ {
			cons := spanOf(dep.Cons, s, dep.Store)
			if cons.Empty() {
				continue
			}
			var haloNode int32 = -1
			for sp := 0; sp < shards; sp++ {
				if sp == s {
					continue
				}
				prod := spanOf(dep.Prod, sp, dep.Store)
				if !prod.Overlaps(cons) {
					continue
				}
				if dep.Kind == ir.DepHalo {
					if haloNode < 0 {
						haloNode = d.addNode(wfNode{kind: wfHalo, entry: int32(dep.Cons), shard: int32(s), aux: int32(di)})
						d.haloID[int64(di)*int64(shards)+int64(s)] = haloNode
						d.addEdge(haloNode, unit(dep.Cons, s))
						d.halos++
					}
					d.addEdge(unit(dep.Prod, sp), haloNode)
				} else {
					d.addEdge(unit(dep.Prod, sp), unit(dep.Cons, s))
				}
			}
		}
	}

	// Fold nodes: one per reducing entry, after every shard of it. The
	// records then order each fold before the later accesses to its store
	// (their units) or, for a same-op reduction, before its fold.
	fold := make([]int32, nentries)
	for e := range g.entries {
		fold[e] = -1
		if len(g.entries[e].plan.redArgs) == 0 {
			continue
		}
		fold[e] = d.addNode(wfNode{kind: wfFold, entry: int32(e)})
		d.folds++
		for s := 0; s < shards; s++ {
			d.addEdge(unit(e, s), fold[e])
		}
	}
	for _, fd := range g.folds {
		if fd.chain {
			d.addEdge(fold[fd.red], fold[fd.cons])
			continue
		}
		for s := 0; s < shards; s++ {
			d.addEdge(fold[fd.red], unit(fd.cons, s))
		}
	}

	// In-degrees.
	d.indeg = make([]atomic.Int32, len(d.nodes))
	for _, succ := range d.succ {
		for _, to := range succ {
			d.indeg[to].Add(1)
		}
	}
	return d
}

// runWavefront drains the group through its DAG — on this rank's share
// of a distributed runtime, or on the pool in-process. Callers hold
// execMu; entries' plans are already resolved and partials reset.
func (rt *Runtime) runWavefront(g *shardGroup) {
	shards := rt.Shards()
	d := g.buildWavefrontDAG(shards)
	if rt.distTx != nil {
		rt.runWavefrontDist(g, d)
	} else {
		run := func(ws *workerState, nid int32) {
			n := &d.nodes[nid]
			switch n.kind {
			case wfUnit:
				rt.runUnitShard(&g.entries[n.entry], ws, int(n.shard), shards)
			case wfHalo:
				// Synchronization only on this shared-memory host: the halo
				// bytes were accounted at enqueue (recordHalo), and the
				// aliased shard instances make the exchanged rows visible
				// without copies.
			case wfFold:
				u := &g.entries[n.entry]
				u.plan.foldPartials(u.task)
			}
		}
		// Feedback-directed dispatch order: price every node from the
		// calibrated cost model and prefer measured-critical paths.
		// In-process only — the distributed drain must keep one common
		// order across ranks, and ranks calibrate independently.
		var prio []float64
		if rt.feedbackOn() {
			prio = rt.wavefrontPriorities(g, d, shards)
		}
		rt.exec.runDAG(true, len(d.nodes), d.indeg, d.succ, prio, run)
	}

	rt.shardStats.WavefrontNodes += int64(len(d.nodes))
	rt.shardStats.WavefrontEdges += d.edges
	rt.shardStats.HaloNodes += d.halos
	rt.shardStats.FoldNodes += d.folds
}

// wavefrontPriorities prices every DAG node and returns its critical-path
// length — the node's own cost plus the longest downstream chain — so the
// drain dispatches the node with the most measured work behind it first.
// Unit nodes are priced from the shard-width calibration class (falling
// back to the static prior until it warms up); halo nodes from the
// boundary bytes a distributed substrate would move across the edge
// (consumer-span bytes through the static bandwidth model — halo-edge
// pricing); folds are noise next to either and price as zero.
func (rt *Runtime) wavefrontPriorities(g *shardGroup, d *wfDAG, shards int) []float64 {
	n := len(d.nodes)
	prio := make([]float64, n)
	for i := range d.nodes {
		nd := &d.nodes[i]
		switch nd.kind {
		case wfUnit:
			u := &g.entries[nd.entry]
			lo, hi := shardColorRange(u.task.Launch, len(u.plan.colors), int(nd.shard), shards)
			if hi <= lo {
				continue
			}
			per := u.plan.perPoint
			if u.plan.calShard != nil {
				per, _ = u.plan.calShard.Estimate()
			}
			prio[i] = per * float64(hi-lo)
		case wfHalo:
			dep := g.deps[nd.aux]
			es := d.spans[dep.Cons]
			if es == nil {
				continue
			}
			u := &g.entries[dep.Cons]
			sp := storeSpan(u, es, shards, int(nd.shard), dep.Store)
			if sp.Empty() {
				continue
			}
			elem := 8
			for ai := range u.plan.args {
				if u.plan.args[ai].store.ID() == dep.Store {
					elem = u.plan.args[ai].store.ElemSize()
					break
				}
			}
			prio[i] = rt.exec.host.PointCost(float64((sp.Hi-sp.Lo)*elem), 0, 0)
		}
	}
	// Longest path to sink in one reverse-topological sweep (Kahn over a
	// private in-degree copy — d.indeg is consumed by the drain itself).
	deg := make([]int32, n)
	for i := range deg {
		deg[i] = d.indeg[i].Load()
	}
	order := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if deg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for h := 0; h < len(order); h++ {
		for _, sn := range d.succ[order[h]] {
			if deg[sn]--; deg[sn] == 0 {
				order = append(order, sn)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		nd := order[i]
		best := 0.0
		for _, sn := range d.succ[nd] {
			if prio[sn] > best {
				best = prio[sn]
			}
		}
		prio[nd] += best
	}
	return prio
}
