package legion

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/wire"
)

// goldenHaloBatch is the batch committed in testdata/wire/halo_batch.bin:
// node 3 carries elements [1,4) of an f64 buffer, node 9 elements [0,3)
// of an f32 buffer widened to float64.
func goldenHaloBatch() []byte {
	batch := appendHaloSub(nil, 3, kir.BufF64([]float64{0.5, -1.25, 3, 1e10, -7}), 1, 4)
	return appendHaloSub(batch, 9, kir.BufF32([]float32{2.5, -0.125, 9}), 0, 3)
}

// TestHaloBatchGolden: the halo batch encoding matches the committed
// bytes, and splitting and patching it restores the sent elements.
func TestHaloBatchGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/wire/halo_batch.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(goldenHaloBatch(), golden) {
		t.Fatal("halo batch encoding differs from golden bytes")
	}
	subs := map[uint64][]byte{}
	if err := splitHaloBatch(golden, func(nid uint64, p []byte) { subs[nid] = p }); err != nil {
		t.Fatal(err)
	}
	f64 := kir.AllocBuffer(kir.F64, 3)
	f32 := kir.AllocBuffer(kir.F32, 3)
	if len(subs) != 2 || patchBuf(f64, 0, subs[3], nil) != nil || patchBuf(f32, 0, subs[9], nil) != nil {
		t.Fatalf("golden batch splits into %d sub-messages", len(subs))
	}
	for i, want := range []float64{-1.25, 3, 1e10} {
		if f64.Get(i) != want {
			t.Errorf("f64[%d] = %v, want %v", i, f64.Get(i), want)
		}
	}
	for i, want := range []float64{2.5, -0.125, 9} {
		if f32.Get(i) != want {
			t.Errorf("f32[%d] = %v, want %v", i, f32.Get(i), want)
		}
	}
}

// FuzzHaloBatch: a rank splits peer-supplied halo batches, so the split
// must fail cleanly or yield sub-messages that re-encode to the input and
// patch back to their own bit patterns.
func FuzzHaloBatch(f *testing.F) {
	golden := goldenHaloBatch()
	f.Add(golden)
	f.Add(golden[:len(golden)-3])
	f.Add(golden[:12])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var w wire.Writer
		err := splitHaloBatch(data, func(nid uint64, p []byte) {
			w.U64(nid)
			w.Str(string(p))
			if len(p)%8 != 0 {
				return
			}
			buf := kir.AllocBuffer(kir.F64, len(p)/8)
			if err := patchBuf(buf, 0, p, nil); err != nil {
				t.Fatal(err)
			}
			if got := appendBufBytes(nil, buf, 0, buf.Len()); !bytes.Equal(got, p) {
				t.Fatalf("node %d payload does not patch back to its bit patterns", nid)
			}
		})
		if err == nil && !bytes.Equal(w.Bytes(), data) {
			t.Fatal("split sub-messages do not re-encode to the batch")
		}
	})
}

// TestPatchBufSkipsCuts: elements inside a cut span keep their local
// value; the rest take the payload's.
func TestPatchBufSkipsCuts(t *testing.T) {
	src := kir.BufF64([]float64{1, 2, 3, 4})
	dst := kir.BufF64([]float64{-1, -2, -3, -4, -5})
	if err := patchBuf(dst, 1, appendBufBytes(nil, src, 0, 4), []ir.Span{{Lo: 2, Hi: 4}}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{-1, 1, -3, -4, 4} {
		if dst.Get(i) != want {
			t.Errorf("dst[%d] = %v, want %v", i, dst.Get(i), want)
		}
	}
	if err := patchBuf(dst, 0, make([]byte, 12), nil); err == nil {
		t.Error("patchBuf accepted a payload that is not a multiple of 8 bytes")
	}
}

// TestStoreBufPanicNamesStoreAndEntry: a rank missing a store's buffer
// fails naming the store and the entry in that order.
func TestStoreBufPanicNamesStoreAndEntry(t *testing.T) {
	ds := &distGroupState{me: 1, g: &shardGroup{entries: []groupEntry{{plan: &taskPlan{}}}}}
	defer func() {
		msg, _ := recover().(string)
		if want := "rank 1 has no buffer for store 7 at entry 0"; !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", msg, want)
		}
	}()
	ds.storeBuf(0, 7)
}
