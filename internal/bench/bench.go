// Package bench is the benchmark harness of the repository, with two
// families of experiments:
//
// The simulated suite regenerates every table and figure of the paper's
// evaluation (§7): weak-scaling throughput sweeps over the simulated
// cluster (Fig. 10–12), the task-count/granularity table (Fig. 9), and
// the compilation-overhead table (Fig. 13). Each experiment builds its
// application fresh per GPU count at a weak-scaled problem size (constant
// work per GPU) in simulated mode, runs warmup iterations (so fusion
// windows stabilize and kernels compile), then measures steady-state
// simulated throughput.
//
// The real-mode macrobenchmark suite (realsuite.go) times actual
// wall-clock execution of CG, Jacobi, Black-Scholes, SWE, and more at
// several problem sizes, fused and unfused and against configuration
// baselines, and emits the committed BENCH_real.json trajectory. See
// docs/BENCHMARKS.md.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/legion"
)

// Instance is one runnable configuration of an application.
type Instance struct {
	Ctx     *cunum.Context
	Iterate func(n int)
}

// Variant names one line of a figure (e.g. "Fused", "Unfused", "PETSc").
type Variant struct {
	Name string
	Make func(gpus int) Instance
}

// Series is one measured line: GPU count -> throughput (iterations/s).
type Series struct {
	Name       string
	Throughput map[int]float64
}

// DefaultGPUCounts is the paper's x-axis: 1..128 GPUs by powers of two.
var DefaultGPUCounts = []int{1, 2, 4, 8, 16, 32, 64, 128}

// SimContext builds a simulated-mode Diffuse context.
func SimContext(gpus int, fused bool) *cunum.Context {
	cfg := core.DefaultConfig(gpus)
	cfg.Mode = legion.ModeSim
	cfg.Enabled = fused
	return cunum.NewContext(core.New(cfg))
}

// SimContextCfg builds a simulated context from an explicit config.
func SimContextCfg(cfg core.Config) *cunum.Context {
	return cunum.NewContext(core.New(cfg))
}

// MeasureThroughput runs warmup then timed iterations on a fresh instance
// and returns steady-state iterations/second of simulated time.
func MeasureThroughput(inst Instance, warmup, iters int) float64 {
	inst.Iterate(warmup)
	leg := inst.Ctx.Runtime().Legion()
	t0 := leg.SimTime()
	inst.Iterate(iters)
	t1 := leg.SimTime()
	if t1 <= t0 {
		return math.Inf(1)
	}
	return float64(iters) / (t1 - t0)
}

// WeakScale sweeps a variant across GPU counts.
func WeakScale(v Variant, gpus []int, warmup, iters int) Series {
	s := Series{Name: v.Name, Throughput: map[int]float64{}}
	for _, g := range gpus {
		s.Throughput[g] = MeasureThroughput(v.Make(g), warmup, iters)
	}
	return s
}

// Figure is a complete weak-scaling experiment.
type Figure struct {
	ID       string
	Title    string
	Variants []Variant
	Warmup   int
	Iters    int
}

// Run executes the figure across the GPU counts and prints a table of
// throughput per GPU count, one column per variant — the data behind the
// paper's plot.
func (f Figure) Run(w io.Writer, gpus []int) []Series {
	fmt.Fprintf(w, "\n== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-6s", "GPUs")
	series := make([]Series, len(f.Variants))
	for i, v := range f.Variants {
		fmt.Fprintf(w, " %14s", v.Name)
		series[i] = Series{Name: v.Name, Throughput: map[int]float64{}}
	}
	fmt.Fprintln(w, "   (throughput, iterations/s)")
	for _, g := range gpus {
		fmt.Fprintf(w, "%-6d", g)
		for i, v := range f.Variants {
			th := MeasureThroughput(v.Make(g), f.Warmup, f.Iters)
			series[i].Throughput[g] = th
			fmt.Fprintf(w, " %14.2f", th)
		}
		fmt.Fprintln(w)
	}
	if len(series) >= 2 {
		fmt.Fprintf(w, "speedup %s/%s: ", series[0].Name, series[len(series)-1].Name)
		for _, g := range gpus {
			fmt.Fprintf(w, " %4.2fx", series[0].Throughput[g]/series[len(series)-1].Throughput[g])
		}
		fmt.Fprintln(w)
	}
	return series
}

// GeoMeanSpeedup returns the geometric-mean ratio of series a over b
// across their common GPU counts.
func GeoMeanSpeedup(a, b Series) float64 {
	var logs float64
	var n int
	var keys []int
	for g := range a.Throughput {
		if _, ok := b.Throughput[g]; ok {
			keys = append(keys, g)
		}
	}
	sort.Ints(keys)
	for _, g := range keys {
		logs += math.Log(a.Throughput[g] / b.Throughput[g])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logs / float64(n))
}

// TaskStats captures the Fig. 9 row for one benchmark.
type TaskStats struct {
	Name            string
	TasksPerIter    float64 // unfused
	FusedPerIter    float64
	AvgTaskLengthMS float64 // unfused single-GPU granularity
	WindowSize      int
}

// MeasureTaskStats reproduces one row of Fig. 9: tasks per iteration with
// and without fusion, average (unfused, single-GPU) task length, and the
// window size Diffuse selected.
func MeasureTaskStats(name string, mk func(gpus int, fused bool) Instance, iters int) TaskStats {
	row := TaskStats{Name: name}

	// Unfused single-GPU run: task counts and granularity.
	inst := mk(1, false)
	leg := inst.Ctx.Runtime().Legion()
	inst.Iterate(1) // setup + first iteration outside measurement
	t0 := leg.ExecutedTasks
	b0 := leg.Sim().BusyTime
	inst.Iterate(iters)
	row.TasksPerIter = float64(leg.ExecutedTasks-t0) / float64(iters)
	row.AvgTaskLengthMS = (leg.Sim().BusyTime - b0) / float64(leg.ExecutedTasks-t0) * 1e3

	// Fused run (8 GPUs, the paper's Fig. 9 methodology).
	finst := mk(8, true)
	fleg := finst.Ctx.Runtime().Legion()
	finst.Iterate(3) // warmup: window growth + memoization
	f0 := fleg.ExecutedTasks
	finst.Iterate(iters)
	row.FusedPerIter = float64(fleg.ExecutedTasks-f0) / float64(iters)
	row.WindowSize = finst.Ctx.Runtime().Stats().WindowSize
	return row
}

// PrintTaskStats renders the Fig. 9 table.
func PrintTaskStats(w io.Writer, rows []TaskStats) {
	fmt.Fprintf(w, "\n== Fig. 9: index tasks per iteration with and without fusion ==\n")
	fmt.Fprintf(w, "%-14s %12s %14s %16s %8s\n", "Benchmark", "Tasks/Iter", "Fused/Iter", "AvgTaskLen(ms)", "Window")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12.1f %14.1f %16.2f %8d\n",
			r.Name, r.TasksPerIter, r.FusedPerIter, r.AvgTaskLengthMS, r.WindowSize)
	}
}

// CompileStats captures the Fig. 13 row for one benchmark.
type CompileStats struct {
	Name         string
	StandardSec  float64 // warmup time without compilation (unfused)
	CompiledSec  float64 // warmup time with JIT compilation (fused)
	BreakevenIts float64 // iterations to amortize compilation; 0 => immediate
}

// MeasureCompileStats reproduces one row of Fig. 13 on 8 simulated GPUs:
// the warmup time of the standard (unfused) and compiled (fused) variants,
// and how many steady-state iterations the fused version needs before its
// cumulative time beats the unfused version.
func MeasureCompileStats(name string, mk func(gpus int, fused bool) Instance, warmupIters int) CompileStats {
	row := CompileStats{Name: name}

	measure := func(fused bool) (warm, perIter float64) {
		inst := mk(8, fused)
		leg := inst.Ctx.Runtime().Legion()
		inst.Iterate(warmupIters)
		warm = leg.SimTime()
		t0 := leg.SimTime()
		inst.Iterate(5)
		perIter = (leg.SimTime() - t0) / 5
		return warm, perIter
	}
	uw, ui := measure(false)
	fw, fi := measure(true)
	row.StandardSec = uw
	row.CompiledSec = fw
	gain := ui - fi
	if gain > 0 && fw > uw {
		row.BreakevenIts = (fw - uw) / gain
	}
	return row
}

// PrintCompileStats renders the Fig. 13 table.
func PrintCompileStats(w io.Writer, rows []CompileStats) {
	fmt.Fprintf(w, "\n== Fig. 13: warmup times on 8 GPUs ==\n")
	fmt.Fprintf(w, "%-14s %14s %14s %14s\n", "Benchmark", "Standard(s)", "Compiled(s)", "Breakeven")
	for _, r := range rows {
		be := "N/A"
		if r.BreakevenIts > 0 {
			be = fmt.Sprintf("%.1f", r.BreakevenIts)
		}
		fmt.Fprintf(w, "%-14s %14.3f %14.3f %14s\n", r.Name, r.StandardSec, r.CompiledSec, be)
	}
}
