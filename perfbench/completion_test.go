package main

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"diffuse/internal/dist"
)

func TestMain(m *testing.M) {
	// The rank subprocesses of a distributed runtime re-execute the test
	// binary.
	dist.MaybeRankMain()
	os.Exit(m.Run())
}

// TestWindowEndsAtCompletionOnRanks guards the completion point of the
// timed window on chain-ranks2, at a tiny size. On a distributed runtime
// Flush and DrainShardGroup return once the parent has sent its messages,
// while the ranks are still executing; only the closing read waits for
// them. So the window must contain time inside a read, and that time must
// fit inside the window: a window that ended at Flush + DrainShardGroup
// would time the parent's sends alone.
func TestWindowEndsAtCompletionOnRanks(t *testing.T) {
	spec := windowSpec{config: runConfig(2, 2), build: chainBuilder(2048, 64, 6), warmup: 1}
	in, _ := setUp(spec, 7, true)
	defer func() {
		if err := in.close(); err != nil {
			t.Errorf("closing the ranks: %v", err)
		}
	}()
	for i := 0; i < 3; i++ {
		w := in.app.window(in.tr)
		if !w.ok {
			t.Fatalf("window %d: the closing read returned no data", i)
		}
		if w.layers.Reads < 1 || w.layers.Read <= 0 {
			t.Fatalf("window %d spent %v in %d reads: it ended before waiting for the ranks", i, w.layers.Read, w.layers.Reads)
		}
		if w.total < w.layers.Read {
			t.Fatalf("window %d lasted %v but spent %v inside reads: the read is outside the window", i, w.total, w.layers.Read)
		}
	}
}

// TestTracedRunMatchesOracle runs a tiny chain on two shards with and
// without the tracer and checks both against the oracle bit for bit.
func TestTracedRunMatchesOracle(t *testing.T) {
	spec := windowSpec{config: runConfig(2, 0), build: chainBuilder(2048, 64, 6), warmup: 1}
	want, wantState, err := oracleRun(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		in, _ := setUp(spec, 3, traced)
		p := pass{windows: []windowSample{in.app.window(in.tr)}, state: in.app.state()}
		if err := in.close(); err != nil {
			t.Fatal(err)
		}
		if bad, ok := p.check(want, wantState); bad != 0 || !ok {
			t.Errorf("traced=%v: %d windows differ from the oracle, final state identical=%v", traced, bad, ok)
		}
	}
}

// TestTracedServeConcurrent drives a traced server from both tenants at
// once: the decorator is called from concurrent serve workers, which the
// race detector checks, and every reply must match the oracle.
func TestTracedServeConcurrent(t *testing.T) {
	want, err := oracleDigests()
	if err != nil {
		t.Fatal(err)
	}
	s, err := startServed(true, want)
	if err != nil {
		t.Fatal(err)
	}
	st := s.runPhase(rand.New(rand.NewSource(1)), 20, time.Second, want).stats()
	l := s.tr.snapshot()
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 || st.sent == 0 {
		t.Fatalf("sent %d, failed %d: %v", st.sent, st.failed, st.firstErr)
	}
	if l.Executes == 0 || l.Execute <= 0 {
		t.Fatalf("tracer saw %d executes in %v", l.Executes, l.Execute)
	}
}
