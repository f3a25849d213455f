package wire

import (
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip: every field type decodes to what was encoded, and End
// accepts the fully consumed input.
func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xAB)
	w.Bool(true)
	w.U16(0xBEEF)
	w.U64(math.MaxUint64)
	w.I64(-5)
	w.F64(math.Copysign(0, -1))
	w.Str("halo")
	w.Ints([]int{3, -1})
	w.Bools([]bool{true, false})
	w.F32s([]float32{1.5, -2})

	r := NewReader(w.Bytes())
	got := []any{r.U8(), r.Bool(), r.U16(), r.U64(), r.I64(), math.Float64bits(r.F64()), r.Str(), r.Ints(), r.Bools(), r.F32s()}
	want := []any{uint8(0xAB), true, uint16(0xBEEF), uint64(math.MaxUint64), int64(-5), math.Float64bits(math.Copysign(0, -1)), "halo", []int{3, -1}, []bool{true, false}, []float32{1.5, -2}}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

// TestReaderRejects: truncation, oversized and negative counts, ragged
// float payloads and trailing bytes all fail, and the first failure
// sticks.
func TestReaderRejects(t *testing.T) {
	count := func(n int64, tail int) []byte {
		var w Writer
		w.I64(n)
		w.b = append(w.b, make([]byte, tail)...)
		return w.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
	}{
		{"truncated u64", []byte{1, 2, 3}, func(r *Reader) { r.U64() }},
		{"count bomb", count(1<<61, 16), func(r *Reader) { r.Ints() }},
		{"negative count", count(-1, 0), func(r *Reader) { r.Str() }},
		{"string past end", count(4, 3), func(r *Reader) { r.Str() }},
		{"ragged f64s", make([]byte, 12), func(r *Reader) { r.F64s() }},
		{"ragged f32s", make([]byte, 6), func(r *Reader) { r.F32s() }},
		{"trailing bytes", make([]byte, 9), func(r *Reader) { r.U64() }},
	}
	for _, c := range cases {
		r := NewReader(c.data)
		c.read(r)
		if r.End() == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	r := NewReader([]byte{1})
	r.U16()
	first := r.Err()
	if first == nil || r.U8() != 0 || r.Err() != first {
		t.Fatalf("error is not sticky: first %v, now %v", first, r.Err())
	}
}
