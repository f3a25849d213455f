package ir

import "encoding/binary"

// This file implements the canonical, De-Bruijn-index-like representation
// of task streams from paper §5.2 (Fig. 7). Two task windows are isomorphic
// — and may share memoized fusion analyses and compiled kernels — exactly
// when their canonical forms are equal: store identities are replaced by
// the index of the store's first appearance in the window, while every
// structural property that the analysis depends on (task names, launch
// domains, kernel bodies, privileges, partitions, store shapes, and the
// liveness bits consumed by temporary-store elimination) is kept verbatim.
//
// The form is binary: varints, with every string and slice count-prefixed,
// so each field is self-delimiting and equal keys mean equal windows. It
// is rebuilt on every window analysis, so it must stay cheap: no fmt, and
// no allocation once a Canonicalizer is warm.

// Canonicalizer builds canonical keys. It keeps its key buffer and its
// first-appearance map between calls, so a warm call allocates nothing.
// The zero value is ready to use; it is not safe for concurrent use.
type Canonicalizer struct {
	buf  []byte
	seen map[StoreID]canonSeen
}

// canonSeen records a store's first appearance in the window being
// encoded: its canonical index and the shard generation it carried.
type canonSeen struct {
	idx  int
	gen0 int64
}

// Partition tags of the canonical form.
const (
	canonTiling byte = iota
	canonNone
	canonOther
)

// Key returns the binary canonical form of the window, valid until the
// next call. live supplies each store's liveness bit (a missing store is
// dead); it enters the form at the store's first appearance, so memoized
// decisions replay only in equivalent liveness states.
func (c *Canonicalizer) Key(window []*Task, live map[StoreID]bool) []byte {
	if c.seen == nil {
		c.seen = map[StoreID]canonSeen{}
	}
	clear(c.seen)
	buf, seen := c.buf[:0], c.seen
	for _, t := range window {
		buf = appendStr(buf, t.Name)
		buf = appendRect(buf, t.Launch)
		// The kernel body (including immediate constants) is part of the
		// isomorphism: replaying a memoized plan substitutes the compiled
		// fused kernel, so streams that differ only in an immediate (e.g.
		// fill(0) vs fill(1)) must not share an analysis.
		buf = appendStr(buf, t.Kernel.Fingerprint())
		buf = binary.AppendUvarint(buf, uint64(len(t.Args)))
		for _, a := range t.Args {
			id := a.Store.ID()
			s, ok := seen[id]
			if !ok {
				// gen0 is the shard generation the store first appeared
				// with; later arguments write only their delta, so
				// memoized plans replay across iterations (absolute
				// generations grow) while windows that straddle a Reshard
				// encode differently from ones that do not.
				s = canonSeen{idx: len(seen), gen0: a.ShardGen}
				seen[id] = s
			}
			// The index equals the count of stores seen so far exactly on
			// a first appearance, which is when the store's own facts
			// follow: shape, dtype and shard count (dtype also appears in
			// the kernel fingerprint, but opaque-kernel tasks must
			// separate too) and the liveness bit.
			buf = binary.AppendUvarint(buf, uint64(s.idx))
			if !ok {
				buf = appendInts(buf, a.Store.Shape())
				buf = binary.AppendUvarint(buf, uint64(a.Store.DType()))
				buf = binary.AppendUvarint(buf, uint64(a.Store.ShardCount()))
				buf = appendBool(buf, live[id])
			}
			buf = binary.AppendVarint(buf, a.ShardGen-s.gen0)
			buf = binary.AppendVarint(buf, int64(a.Priv))
			if a.Priv == Reduce {
				buf = binary.AppendVarint(buf, int64(a.Red))
			}
			buf = appendPart(buf, a.Part)
		}
	}
	c.buf = buf
	return buf
}

// appendPart encodes the fields a partition's Equal compares, which are
// the fields of its Fingerprint.
func appendPart(buf []byte, p Partition) []byte {
	switch p := p.(type) {
	case *TilingPart:
		buf = append(buf, canonTiling)
		buf = appendInts(buf, p.View)
		buf = appendInts(buf, p.Tile)
		buf = appendInts(buf, p.Offset)
		buf = appendInts(buf, p.Stride)
		buf = binary.AppendVarint(buf, p.Proj.id)
		return appendRect(buf, p.Colors)
	case *NonePart:
		buf = append(buf, canonNone)
		return appendRect(buf, p.Colors)
	default:
		buf = append(buf, canonOther)
		return appendStr(buf, p.Fingerprint())
	}
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendInts(buf []byte, vs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

func appendRect(buf []byte, r Rect) []byte {
	return appendInts(appendInts(buf, r.Lo), r.Hi)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}
