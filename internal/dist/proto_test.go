package dist

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/wire"
)

// Control bodies committed under testdata/wire, with the values they
// encode: the codec must keep producing exactly these bytes.
var (
	goldenStore = ir.RestoreStore(7, "grid", []int{3, 5}, ir.F32)
	goldenF64s  = []float64{1.5, math.Copysign(0, -1), math.Inf(1), math.Float64frombits(0x7ff8000000000abc), 1e-300}
	goldenF32s  = []float32{1.5, float32(math.Copysign(0, -1)), float32(math.Inf(-1)), 3.25e-5}
)

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/wire/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func bitsEqual64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func bitsEqual32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestControlBodiesGolden: StoreNew, WriteAll, WriteAll32 and ReadAt-reply
// bodies encode to the committed bytes and decode back to their values.
func TestControlBodiesGolden(t *testing.T) {
	b := readGolden(t, "storenew.bin")
	if !bytes.Equal(encodeStoreNew(goldenStore), b) {
		t.Error("StoreNew body differs from golden bytes")
	}
	if s, err := decodeStoreNew(b); err != nil || s.ID() != 7 || s.Name() != "grid" || s.DType() != ir.F32 || !reflect.DeepEqual(s.Shape(), []int{3, 5}) {
		t.Errorf("StoreNew golden decodes to %v, %v", s, err)
	}

	b = readGolden(t, "writeall.bin")
	if !bytes.Equal(encodeWriteAll(7, goldenF64s), b) {
		t.Error("WriteAll body differs from golden bytes")
	}
	if id, data, err := decodeWriteAll(b); err != nil || id != 7 || !bitsEqual64(data, goldenF64s) {
		t.Errorf("WriteAll golden decodes to %d %v, %v", id, data, err)
	}

	b = readGolden(t, "writeall32.bin")
	if !bytes.Equal(encodeWriteAll32(7, goldenF32s), b) {
		t.Error("WriteAll32 body differs from golden bytes")
	}
	if id, data, err := decodeWriteAll32(b); err != nil || id != 7 || !bitsEqual32(data, goldenF32s) {
		t.Errorf("WriteAll32 golden decodes to %d %v, %v", id, data, err)
	}

	b = readGolden(t, "readat_reply.bin")
	if !bytes.Equal(encodeReadAtReply(-2.75, true), b) {
		t.Error("ReadAt reply differs from golden bytes")
	}
	if v, ok, err := decodeReadAtReply(b); err != nil || v != -2.75 || !ok {
		t.Errorf("ReadAt reply golden decodes to %v %v, %v", v, ok, err)
	}
}

// storeNewRankOverflow is a 25-byte StoreNew body (id 7, dtype 0, empty
// name) whose shape rank 1<<61 makes rank*8 wrap to zero.
func storeNewRankOverflow() []byte {
	var w wire.Writer
	w.I64(7)
	w.U8(0)
	w.Str("")
	w.I64(1 << 61)
	return w.Bytes()
}

// TestDecodeStoreNewRankOverflow: a shape rank whose byte size overflows
// is rejected as an error, not a makeslice panic in the rank.
func TestDecodeStoreNewRankOverflow(t *testing.T) {
	b := storeNewRankOverflow()
	if len(b) != 25 {
		t.Fatalf("body is %d bytes, want 25", len(b))
	}
	if s, err := decodeStoreNew(b); err == nil {
		t.Fatalf("decoded store %v from a body with no shape bytes", s)
	}
}

// FuzzControlBodies: the control bodies a rank or the parent decodes from
// a socket either fail cleanly or re-encode to bytes that decode to the
// same values (byte-identical, except that any nonzero ok byte of a ReadAt
// reply re-encodes as 1).
func FuzzControlBodies(f *testing.F) {
	for _, name := range []string{"storenew.bin", "writeall.bin", "writeall32.bin", "readat_reply.bin"} {
		if b, err := os.ReadFile("testdata/wire/" + name); err == nil {
			f.Add(b)
		}
	}
	f.Add(storeNewRankOverflow())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		if s, err := decodeStoreNew(body); err == nil && !bytes.Equal(encodeStoreNew(s), body) {
			t.Fatal("StoreNew body does not re-encode to itself")
		}
		if id, data, err := decodeWriteAll(body); err == nil && !bytes.Equal(encodeWriteAll(id, data), body) {
			t.Fatal("WriteAll body does not re-encode to itself")
		}
		if id, data, err := decodeWriteAll32(body); err == nil && !bytes.Equal(encodeWriteAll32(id, data), body) {
			t.Fatal("WriteAll32 body does not re-encode to itself")
		}
		if v, ok, err := decodeReadAtReply(body); err == nil {
			v2, ok2, err := decodeReadAtReply(encodeReadAtReply(v, ok))
			if err != nil || ok2 != ok || math.Float64bits(v2) != math.Float64bits(v) {
				t.Fatalf("ReadAt reply does not round-trip: %v %v, %v", v2, ok2, err)
			}
		}
	})
}
