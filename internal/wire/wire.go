// Package wire is the byte codec of every message the distributed runtime
// puts on a socket: the ir task stream, the kir kernel bodies, the dist
// control bodies and the legion halo traffic all encode through Writer
// and decode through Reader.
//
// Encoding rules: integers are little-endian (u16 for version words, u64
// or int64 for everything else), enums are single bytes, floats are
// IEEE-754 bit patterns, strings and slices carry an int64 count prefix
// except where a method says otherwise. The same values always encode to
// the same bytes.
//
// Reader is the trust boundary: its input arrives from another process.
// Every read is bounds-checked, the first failure sticks (later reads
// return zero values), and every count is capped against the bytes that
// remain, so a corrupt or hostile length fails cleanly instead of sizing
// an allocation.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends fields to a byte slice. The zero value starts a fresh
// slice; NewWriter appends to a caller's buffer (a reusable scratch).
type Writer struct{ b []byte }

// NewWriter returns a Writer appending to buf.
func NewWriter(buf []byte) Writer { return Writer{b: buf} }

// Bytes returns the encoded bytes.
func (w *Writer) Bytes() []byte { return w.b }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.b = append(w.b, v) }

// Bool appends one byte, 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// I64 appends an int64 as its little-endian two's-complement bits.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends the IEEE-754 bit pattern of v.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str appends a count-prefixed string.
func (w *Writer) Str(s string) {
	w.I64(int64(len(s)))
	w.b = append(w.b, s...)
}

// Ints appends a count-prefixed slice of int64s.
func (w *Writer) Ints(vs []int) {
	w.I64(int64(len(vs)))
	for _, v := range vs {
		w.I64(int64(v))
	}
}

// Bools appends a count-prefixed slice of one-byte booleans.
func (w *Writer) Bools(vs []bool) {
	w.I64(int64(len(vs)))
	for _, v := range vs {
		w.Bool(v)
	}
}

// F64s appends the bit patterns of vs with no count prefix: the slice
// runs to the end of the message (Reader.F64s).
func (w *Writer) F64s(vs []float64) {
	for _, v := range vs {
		w.F64(v)
	}
}

// F32s appends the 4-byte bit patterns of vs with no count prefix: the
// slice runs to the end of the message (Reader.F32s).
func (w *Writer) F32s(vs []float32) {
	for _, v := range vs {
		w.b = binary.LittleEndian.AppendUint32(w.b, math.Float32bits(v))
	}
}

// Reader decodes fields from a byte slice with a sticky error.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Fail records a decode failure unless one is already recorded. Callers
// use it for semantic checks (an unknown enum, a dangling reference) so
// those stick like truncation does.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// End returns the sticky error, or an error when unread bytes remain.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n > len(r.b)-r.off {
		r.Fail("wire: truncated at offset %d (need %d bytes of %d)", r.off, n, len(r.b))
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads one byte as a boolean (nonzero is true).
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads an int64 count prefix and bounds-checks it: negative counts
// fail, and so does any count whose elements (at least min bytes each)
// cannot fit in the bytes that remain. A min of 0 checks only the sign.
func (r *Reader) Count(min int) int {
	n := r.I64()
	if r.err != nil {
		return 0
	}
	if n < 0 || (min > 0 && n > int64(r.Remaining())/int64(min)) {
		r.Fail("wire: count %d out of range at offset %d", n, r.off)
		return 0
	}
	return int(n)
}

// Bytes returns the next n bytes, aliasing the input.
func (r *Reader) Bytes(n int) []byte {
	if !r.need(n) {
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Str reads a count-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes(r.Count(1))) }

// Ints reads a count-prefixed slice of int64s (nil when empty).
func (r *Reader) Ints() []int {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(r.I64())
	}
	return vs
}

// Bools reads a count-prefixed slice of one-byte booleans (nil when
// empty).
func (r *Reader) Bools() []bool {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		vs[i] = r.Bool()
	}
	return vs
}

// F64s reads float64 bit patterns up to the end of the message; the
// remaining length must be a multiple of 8.
func (r *Reader) F64s() []float64 {
	if r.err != nil {
		return nil
	}
	if n := r.Remaining(); n%8 != 0 {
		r.Fail("wire: float64 payload length %d not a multiple of 8", n)
		return nil
	}
	vs := make([]float64, r.Remaining()/8)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}

// F32s reads float32 bit patterns up to the end of the message; the
// remaining length must be a multiple of 4.
func (r *Reader) F32s() []float32 {
	if r.err != nil {
		return nil
	}
	if n := r.Remaining(); n%4 != 0 {
		r.Fail("wire: float32 payload length %d not a multiple of 4", n)
		return nil
	}
	vs := make([]float32, r.Remaining()/4)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.b[r.off+4*i:]))
	}
	r.off = len(r.b)
	return vs
}
