package bench

import (
	"os"
	"testing"
	"time"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/dist"
	"diffuse/internal/ir"
	"diffuse/internal/legion"
)

func TestMain(m *testing.M) {
	// The rank subprocesses of a distributed runtime re-execute the test
	// binary.
	dist.MaybeRankMain()
	os.Exit(m.Run())
}

// readClock decorates a runtime's legion seam and times its scalar reads.
type readClock struct {
	legion.RemoteBackend
	reads int
	read  time.Duration
}

func (c *readClock) ReadAt(s *ir.Store, off int) (float64, bool) {
	t0 := time.Now()
	defer func() {
		c.reads++
		c.read += time.Since(t0)
	}()
	return c.RemoteBackend.ReadAt(s, off)
}

// TestWindowEndsAtForcedRead guards the completion point of a timed
// window on a tiny ranks=2 Stencil-Chain. On a distributed runtime Flush
// and a shard-group drain return once the parent has sent its messages,
// while the ranks are still executing; only a read waits for them. So the
// window must contain time inside a read, and that time must fit inside
// the window.
func TestWindowEndsAtForcedRead(t *testing.T) {
	c := realCase{app: "Stencil-Chain", size: "tiny", n: 2048, ranks: 2, make: mkStencilChain}
	ctx := cunum.NewContext(core.New(c.config(8, true)))
	defer func() {
		if err := ctx.Close(); err != nil {
			t.Errorf("closing the ranks: %v", err)
		}
	}()
	leg := ctx.Runtime().Legion()
	clock := &readClock{RemoteBackend: leg.Remote()}
	if clock.RemoteBackend == nil {
		t.Fatal("a ranks=2 runtime has no remote backend")
	}
	leg.SetRemote(clock)
	app := c.make(ctx, c.n, c.dtype)
	app.window(1)
	for i := 0; i < 3; i++ {
		clock.reads, clock.read = 0, 0
		total := app.window(2)
		if clock.reads < 1 || clock.read <= 0 {
			t.Fatalf("window %d spent %v in %d reads: it ended before waiting for the ranks", i, clock.read, clock.reads)
		}
		if total < clock.read {
			t.Fatalf("window %d lasted %v but spent %v inside reads: the read is outside the window", i, total, clock.read)
		}
	}
}

// TestTinyCasesCoverEveryVariant: CI's tiny run measures every variant
// and every other configuration delta, and in both presets every variant
// is known, every baseline names an earlier row, and no two cases share a
// key.
func TestTinyCasesCoverEveryVariant(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range tinyCases() {
		r := c.result(8, true)
		seen[r.Variant] = true
		seen["dtype="+r.DType] = true
		seen["shards>1"] = seen["shards>1"] || r.Shards > 1 && r.Ranks == 0
		seen["ranks>1"] = seen["ranks>1"] || r.Ranks > 1
		seen["tenants>1"] = seen["tenants>1"] || r.Tenants > 1
	}
	want := []string{"dtype=f32", "shards>1", "ranks>1", "tenants>1"}
	for v := range realVariants {
		want = append(want, v)
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("the tiny preset has no %s row", w)
		}
	}
	for _, preset := range []string{"tiny", "full"} {
		earlier := map[string]bool{}
		for _, c := range realCases(preset) {
			r := c.result(8, true)
			if _, ok := realVariants[r.Variant]; !ok {
				t.Errorf("%s: %s has unknown variant %q", preset, r.key(), r.Variant)
			}
			if r.Baseline != "" && !earlier[r.Baseline] {
				t.Errorf("%s: %s names baseline %q, which is not an earlier row", preset, r.key(), r.Baseline)
			}
			if earlier[r.key()] {
				t.Errorf("%s: two cases share the key %s", preset, r.key())
			}
			earlier[r.key()] = true
		}
	}
}
