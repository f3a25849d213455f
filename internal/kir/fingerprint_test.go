package kir

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmtFingerprint is the fmt-based rendering Fingerprint replaced, kept as
// the reference its strconv rewrite must match byte for byte: the
// fingerprint travels on the wire and keys the memo and kernel caches.
func fmtFingerprint(k *Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", k.NParams)
	for p := 0; p < k.NParams; p++ {
		b.WriteString(k.DTypeOf(p).String())
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, l := range k.Loops {
		fmt.Fprintf(&b, "k%d;d%s;e%v;r%d;y%d;x%d;m%d;a%t;red%d;s%d;p%d{",
			l.Kind, l.Dom, l.Ext, l.ExtRef, l.Y, l.X, l.MatA, l.Acc, l.Red, l.Seed, l.PayloadKey)
		for _, st := range l.Stmts {
			fmt.Fprintf(&b, "%d:%d:%d:", st.Kind, st.Param, st.Red)
			fmtExprFingerprint(&b, st.E)
			b.WriteByte(';')
		}
		b.WriteByte('}')
	}
	return b.String()
}

func fmtExprFingerprint(b *strings.Builder, e *Expr) {
	if e == nil {
		b.WriteByte('_')
		return
	}
	switch e.Op {
	case OpConst:
		fmt.Fprintf(b, "c%g", e.Imm)
	case OpLoad:
		fmt.Fprintf(b, "l%d", e.Param)
	case OpLoadScalar:
		fmt.Fprintf(b, "s%d", e.Param)
	case OpCast:
		fmt.Fprintf(b, "cast%s(", e.DT)
		fmtExprFingerprint(b, e.A)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "%d(", e.Op)
		fmtExprFingerprint(b, e.A)
		b.WriteByte(',')
		fmtExprFingerprint(b, e.B)
		b.WriteByte(',')
		fmtExprFingerprint(b, e.C)
		b.WriteByte(')')
	}
}

// TestFingerprintMatchesFmtRendering: the strconv Fingerprint renders
// exactly the bytes of the fmt reference over random kernels, and over a
// kernel whose constants are the float special values (±Inf, NaN, -0,
// extremes) and whose loops carry negative and empty fields.
func TestFingerprintMatchesFmtRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		k := randDiffKernel(rng).k
		if got, want := k.Fingerprint(), fmtFingerprint(k); got != want {
			t.Fatalf("kernel %d:\n got %s\nwant %s", i, got, want)
		}
	}
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e21, 1e-7, -123456789.25}
	k := NewKernel("special", 3)
	k.SetDType(1, F32)
	k.SetDType(2, DType(9)) // unknown dtype renders through its fallback
	l := &Loop{Kind: LoopElem, Dom: "[16 16]|[8 16]", Ext: []int{-3, 0, 8}, ExtRef: 2,
		Y: -1, X: 7, MatA: 1 << 40, Acc: true, Red: RedMin, Seed: math.MaxUint64, PayloadKey: -9}
	for i, v := range special {
		l.Stmts = append(l.Stmts, Stmt{Kind: KReduce, Param: i % 3, Red: RedMax,
			E: Binary(OpAdd, Const(v), Cast(I32, Select(LoadScalar(1), Const(-v), nil)))})
	}
	k.AddLoop(l)
	k.AddLoop(&Loop{Kind: LoopRandom}) // nil Ext, no statements
	if got, want := k.Fingerprint(), fmtFingerprint(k); got != want {
		t.Fatalf("special values:\n got %s\nwant %s", got, want)
	}
}
