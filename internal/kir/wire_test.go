package kir

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecodeKernel: every rank decodes parent-supplied kernel bodies, so
// DecodeKernel is a trust boundary. Any input must either fail cleanly or
// decode to a kernel whose encoding decodes again and is a fixed point of
// the codec (unreferenced expression nodes drop out of the first
// re-encoding, so only the second must match it).
func FuzzDecodeKernel(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		dk := randDiffKernel(rand.New(rand.NewSource(seed)))
		enc := EncodeKernel(dk.k)
		f.Add(enc)
		f.Add(EncodeKernel(Optimize(dk.k, nil)))
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := DecodeKernel(data)
		if err != nil {
			return
		}
		reenc := EncodeKernel(k)
		k2, err := DecodeKernel(reenc)
		if err != nil {
			t.Fatalf("re-encoded kernel does not decode: %v", err)
		}
		if again := EncodeKernel(k2); !bytes.Equal(again, reenc) {
			t.Fatal("kernel encoding is not a fixed point after one round trip")
		}
	})
}
