package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to count as measured rather than as an estimate of the maximum.
const minBeyond = 10

// quantile is one percentile of a sample set, with the counts a reader
// needs to judge it.
type quantile struct {
	Pct    int     // requested percentile, 1..100
	Value  float64 // nearest-rank value
	N      int     // samples in the set
	Beyond int     // samples ranked above Value
}

// Supported reports whether at least minBeyond samples rank above the
// percentile.
func (q quantile) Supported() bool { return q.Beyond >= minBeyond }

// percentile returns the nearest-rank pct-th percentile of xs: the value at
// rank ceil(pct·n/100) of the sorted samples. Integer arithmetic keeps the
// rank exact, so 100 samples give p90 exactly 10 samples beyond. An empty
// set yields a zero quantile with N = 0.
func percentile(xs []float64, pct int) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Pct: pct}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (pct*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return quantile{Pct: pct, Value: s[rank-1], N: n, Beyond: n - rank}
}

// blockPercentile is the pct-th percentile of a run whose samples come
// in blocks (set-ups, servers). When every block has minBeyond samples
// beyond its own percentile, it is the median of the blocks'
// percentiles, so a burst of host noise during one block moves it
// little; otherwise the blocks are pooled, keeping the rule that a
// reported percentile has minBeyond samples beyond it where the run has
// them. N is the run's sample count; Beyond is the fewest samples beyond
// any block's percentile, or the pooled count.
func blockPercentile(blocks [][]float64, pct int) quantile {
	var all, vals []float64
	out := quantile{Pct: pct, Beyond: -1}
	for _, b := range blocks {
		q := percentile(b, pct)
		if !q.Supported() {
			out.Beyond = -1
			break
		}
		vals = append(vals, q.Value)
		if out.Beyond < 0 || q.Beyond < out.Beyond {
			out.Beyond = q.Beyond
		}
	}
	for _, b := range blocks {
		all = append(all, b...)
	}
	if out.Beyond < 0 || len(vals) == 0 {
		return percentile(all, pct)
	}
	out.N, out.Value = len(all), median(vals)
	return out
}

// minSamplesFor is the smallest sample count whose pct-th percentile has
// minBeyond samples beyond it.
func minSamplesFor(pct int) int {
	for n := 1; ; n++ {
		if percentile(make([]float64, n), pct).Supported() {
			return n
		}
	}
}

// median is the 50th percentile value.
func median(xs []float64) float64 { return percentile(xs, 50).Value }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio divides, returning 0 for an empty denominator: counters of a layer
// a workload never reaches read as zero rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tenthsDrift compares the median of the last tenth of a series with the
// median of its first tenth (at least one sample each): 1 means the
// windows at the end of a run cost what they cost at its start.
func tenthsDrift(xs []float64) float64 {
	k := len(xs) / 10
	if k < 1 {
		k = 1
	}
	if len(xs) < 2 {
		return 1
	}
	return ratio(median(xs[len(xs)-k:]), median(xs[:k]))
}
