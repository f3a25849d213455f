package main

import (
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helper must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n, pct      int
		value       float64
		beyond      int
		supported   bool
		description string
	}{
		{100, 90, 90, 10, true, "100 samples give p90 exactly ten beyond"},
		{99, 90, 90, 9, false, "99 samples leave p90 one short"},
		{1000, 99, 990, 10, true, "1000 samples give p99 exactly ten beyond"},
		{999, 99, 990, 9, false, "999 samples leave p99 one short"},
		{5, 50, 3, 2, false, "odd count: the middle sample"},
		{4, 50, 2, 2, false, "even count: the lower middle sample"},
		{1, 99, 1, 0, false, "a single sample is every percentile"},
	}
	for _, c := range cases {
		q := percentile(seq(c.n), c.pct)
		if q.Value != c.value || q.Beyond != c.beyond || q.N != c.n || q.Pct != c.pct || q.Supported() != c.supported {
			t.Errorf("%s: percentile(n=%d, p%d) = %+v supported=%v, want value %v beyond %d supported=%v",
				c.description, c.n, c.pct, q, q.Supported(), c.value, c.beyond, c.supported)
		}
	}
}

func TestPercentileEmptyAndInputUntouched(t *testing.T) {
	if q := percentile(nil, 50); q.N != 0 || q.Value != 0 || q.Supported() {
		t.Errorf("percentile(nil) = %+v, want the zero quantile", q)
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestMinSamplesFor(t *testing.T) {
	for pct, want := range map[int]int{50: 20, 90: 100, 99: 1000} {
		if got := minSamplesFor(pct); got != want {
			t.Errorf("minSamplesFor(%d) = %d, want %d", pct, got, want)
		}
	}
}

func TestTenthsDrift(t *testing.T) {
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 7
	}
	if d := tenthsDrift(flat); d != 1 {
		t.Errorf("tenthsDrift(flat) = %v, want 1", d)
	}
	// 100..1: the first tenth 100..91 has nearest-rank median 95, the
	// last tenth 10..1 has 5.
	if d := tenthsDrift(seq(100)); d != 5.0/95.0 {
		t.Errorf("tenthsDrift(100..1) = %v, want %v", d, 5.0/95.0)
	}
}

func TestBlockPercentile(t *testing.T) {
	// Three blocks of 200: every block's p90 has 20 beyond, so the result
	// is the median of the blocks' p90s.
	blocks := [][]float64{seq(200), seq(200), seq(200)}
	for i := range blocks[2] {
		blocks[2][i] *= 10 // one noisy block
	}
	q := blockPercentile(blocks, 90)
	if q.Value != 180 || q.N != 600 || q.Beyond != 20 {
		t.Errorf("supported blocks: got %+v, want the median block p90 180 over n=600 with 20 beyond", q)
	}
	// Blocks of 50 cannot carry a p90 each: the blocks are pooled.
	small := [][]float64{seq(50), seq(50), seq(50)}
	q = blockPercentile(small, 90)
	if want := percentile(append(append(seq(50), seq(50)...), seq(50)...), 90); q != want {
		t.Errorf("under-sampled blocks: got %+v, want the pooled %+v", q, want)
	}
	if !q.Supported() || q.N != 150 || q.Beyond != 15 {
		t.Errorf("pooled p90 of 150 samples: got %+v, want 15 beyond", q)
	}
}
