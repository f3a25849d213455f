package ir

// Wavefront scheduling metadata. The sharded runtime (internal/legion)
// drains a shard group as a per-(task, shard) dependence DAG: a shard's
// next task waits only on its own previous one plus the specific neighbor
// halo sends it consumes, so one shard can run several tasks ahead of
// another wherever no dependence edge connects them. The types here are
// the runtime-independent half of that plan: the dependence records a
// drained group carries between its entries, and the flat-offset spans
// the scheduler intersects to turn a record into concrete cross-shard
// edges.
//
// Spans are deliberately conservative: a span is the tight [Lo, Hi) flat
// interval bounding every element one shard of one task argument touches,
// so two spans that do not overlap provably touch disjoint data, while
// overlapping spans may or may not conflict. The scheduler only ever uses
// non-overlap to *remove* edges, so conservatism costs pipelining, never
// correctness.

// Span is a half-open interval [Lo, Hi) of flat element offsets into one
// store's canonical layout. The zero Span is empty.
type Span struct {
	Lo, Hi int
}

// Empty reports whether the span covers no elements.
func (s Span) Empty() bool { return s.Hi <= s.Lo }

// Overlaps reports whether two spans share at least one element. Empty
// spans overlap nothing.
func (s Span) Overlaps(o Span) bool {
	return !s.Empty() && !o.Empty() && s.Lo < o.Hi && o.Lo < s.Hi
}

// Union returns the smallest span covering both inputs (empty inputs are
// ignored).
func (s Span) Union(o Span) Span {
	if s.Empty() {
		return o
	}
	if o.Empty() {
		return s
	}
	if o.Lo < s.Lo {
		s.Lo = o.Lo
	}
	if o.Hi > s.Hi {
		s.Hi = o.Hi
	}
	return s
}

// DepKind classifies one dependence record of a drained shard group.
type DepKind int

const (
	// DepPointwise is a dependence through structurally equal partitions:
	// data flows point-wise, so shard blocks exchange nothing and the
	// consumer needs no cross-shard edge (its own-shard chain suffices).
	DepPointwise DepKind = iota
	// DepHalo is a read-after-write whose partitions misalign: the
	// consumer's shard footprint reaches into neighbor shards of the
	// producer, and the edge is materialized as a first-class
	// halo-exchange node in the wavefront DAG.
	DepHalo
	// DepAnti is a write-after-read (or write-after-write) whose
	// partitions misalign: ordering is required but no data travels, so
	// the edge is direct (no halo node).
	DepAnti
)

// String implements fmt.Stringer.
func (k DepKind) String() string {
	switch k {
	case DepPointwise:
		return "pointwise"
	case DepHalo:
		return "halo"
	case DepAnti:
		return "anti"
	default:
		return "DepKind(?)"
	}
}

// StageDep is one dependence record on a drained group's plan: entry Cons
// (by index into the group's task list) depends on entry Prod through the
// named store. The scheduler resolves it into per-shard edges by
// intersecting the two entries' per-shard spans on that store; Kind
// selects whether a halo-exchange node is interposed.
type StageDep struct {
	Prod, Cons int
	Store      StoreID
	Kind       DepKind
}
