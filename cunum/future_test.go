package cunum

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"diffuse/internal/core"
)

func testCtx(procs int) *Context {
	return NewContext(core.New(core.DefaultConfig(procs)))
}

// TestFutureDefersFlush checks that creating a future emits nothing and
// that forcing it yields the chained value.
func TestFutureDefersFlush(t *testing.T) {
	ctx := testCtx(4)
	n := 64
	x := ctx.Ones(n)
	f := x.MulC(2).Sum().Future()
	if got := ctx.Runtime().Stats().Emitted; got != 0 {
		t.Fatalf("future creation must not flush, emitted = %d", got)
	}
	if got := f.Value(); got != float64(2*n) {
		t.Fatalf("future value = %g, want %g", got, float64(2*n))
	}
	if ctx.Runtime().Stats().Emitted == 0 {
		t.Fatal("forcing the future should have emitted tasks")
	}
	// Cached after resolution.
	if got := f.Value(); got != float64(2*n) {
		t.Fatalf("cached value = %g", got)
	}
	if !f.Resolved() {
		t.Fatal("future should report resolved")
	}
}

// TestFuturePartialFlush checks that forcing one future leaves an
// independent chain buffered in the window.
func TestFuturePartialFlush(t *testing.T) {
	ctx := testCtx(4)
	a := ctx.Ones(64)
	fa := a.Sum().Future()
	b := ctx.Full(3, 64)
	fb := b.Sum().Future()

	if got := fb.Value(); got != 3*64 {
		t.Fatalf("fb = %g, want %g", got, 3.0*64)
	}
	if got := ctx.Session().Pending(); got == 0 {
		t.Fatal("chain A should still be buffered after forcing only B")
	}
	if got := fa.Value(); got != 64 {
		t.Fatalf("fa = %g, want 64", got)
	}
}

// TestFutureRelease: releasing an unresolved future drops it; Value after
// Release panics.
func TestFutureRelease(t *testing.T) {
	ctx := testCtx(4)
	f := ctx.Ones(16).Sum().Future()
	f.Release()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Value after Release should panic")
		}
	}()
	f.Value()
}

// TestFutureAt reads a non-scalar element through a future.
func TestFutureAt(t *testing.T) {
	ctx := testCtx(4)
	x := ctx.Arange(16).Keep()
	f := x.Future(7)
	if got := f.Value(); got != 7 {
		t.Fatalf("x[7] future = %g", got)
	}
}

// TestScalarPartialFlush: the eager Scalar read now forces only its
// dependency closure, leaving independent work buffered.
func TestScalarPartialFlush(t *testing.T) {
	ctx := testCtx(4)
	_ = ctx.Ones(64).Keep() // independent buffered fill
	s := ctx.Full(5, 64).Sum().Keep()
	if got := s.Scalar(); got != 5*64 {
		t.Fatalf("sum = %g", got)
	}
	if ctx.Session().Pending() == 0 {
		t.Fatal("independent fill should still be buffered after Scalar")
	}
	ctx.Flush()
}

// TestUseAfterFreePanics: every entry point on a freed array must panic
// with the documented message instead of nil-dereferencing.
func TestUseAfterFreePanics(t *testing.T) {
	ctx := testCtx(4)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s on freed array should panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "use of freed array") {
				t.Fatalf("%s: unexpected panic %v", name, r)
			}
		}()
		fn()
	}

	freed := func() *Array {
		a := ctx.Ones(16).Keep()
		ctx.Flush()
		a.Free()
		return a
	}

	a := freed()
	mustPanic("Add", func() { a.Add(ctx.Ones(16)) })
	a = freed()
	mustPanic("operand", func() { ctx.Ones(16).Add(a) })
	a = freed()
	mustPanic("Slice", func() { a.Slice([]int{0}, []int{4}) })
	a = freed()
	mustPanic("Step", func() { a.Step([]int{2}) })
	a = freed()
	mustPanic("Sum", func() { a.Sum() })
	a = freed()
	mustPanic("ToHost", func() { a.ToHost() })
	a = freed()
	mustPanic("Scalar", func() { a.Scalar() })
	a = freed()
	mustPanic("Future", func() { a.Future() })
	a = freed()
	mustPanic("Store", func() { a.Store() })
	a = freed()
	mustPanic("MatVec", func() { MatVec(ctx.Ones(4, 4), a.Slice([]int{0}, []int{4})) })
	ctx.Flush()
}

// TestConcurrentSessionContexts drives two goroutines, each with its own
// session context, issuing cunum ops into one shared runtime (run under
// -race). Each goroutine reads its results back through futures.
func TestConcurrentSessionContexts(t *testing.T) {
	rt := core.New(core.DefaultConfig(4))
	const iters = 50

	var wg sync.WaitGroup
	results := make([]float64, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := NewSessionContext(rt.NewSession())
			scale := float64(g + 1)
			x := ctx.Full(scale, 256).Keep()
			for i := 0; i < iters; i++ {
				y := x.MulC(2).AddC(1).Keep()
				x.Free()
				x = y
				if i%10 == 0 {
					// A deferred convergence-style read mid-stream.
					_ = x.Norm().Future().Value()
				}
			}
			results[g] = x.Sum().Future().Value()
			x.Free()
		}(g)
	}
	wg.Wait()

	// x_k = 2^k * x_0 + (2^k - 1); per-element, summed over 256 elements.
	pow := math.Pow(2, iters)
	for g := 0; g < 2; g++ {
		want := 256 * (pow*float64(g+1) + pow - 1)
		if math.Abs(results[g]-want)/want > 1e-12 {
			t.Fatalf("session %d: got %g want %g", g, results[g], want)
		}
	}
}

// TestDomSigMatchesFmt: the strconv domain signature renders exactly the
// fmt "%v|%v" text of shape and tile it replaced (it enters kernel
// fingerprints, so the bytes must not move).
func TestDomSigMatchesFmt(t *testing.T) {
	for _, procs := range []int{1, 4, 6} {
		ctx := testCtx(procs)
		for _, shape := range [][]int{{16, 16}, {7}, {1}, {100, 3}, {5, 129}} {
			a := ctx.Zeros(shape...)
			want := fmt.Sprintf("%v|%v", a.shape, a.tileExt())
			if got := a.domSig(); got != want {
				t.Fatalf("procs %d shape %v: domSig %q, want %q", procs, shape, got, want)
			}
		}
	}
	if got := testCtx(4).Zeros(16, 16).domSig(); got != "[16 16]|[8 8]" {
		t.Fatalf("domSig %q, want %q", got, "[16 16]|[8 8]")
	}
}
