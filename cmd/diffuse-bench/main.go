// Command diffuse-bench regenerates every table and figure of the paper's
// evaluation (§7) on the simulated cluster:
//
//	diffuse-bench -all                 # everything
//	diffuse-bench -fig 10a             # one figure (9, 10a, 10b, 11a, 11b, 12a, 12b, 12c, 13)
//	diffuse-bench -gpus 1,8,64         # restrict the weak-scaling x-axis
//	diffuse-bench -scale 0.25          # shrink per-GPU problem sizes
//	diffuse-bench -ablate taskonly     # task fusion without kernel fusion
//	diffuse-bench -ablate notemp       # no temporary-store elimination
//	diffuse-bench -ablate nomemo       # no memoization
//	diffuse-bench -ablate window       # window-size sensitivity sweep
//
// It also runs the real-execution macrobenchmark suite behind the
// committed BENCH_real.json (see docs/BENCHMARKS.md):
//
//	diffuse-bench -real                          # wall-clock suite, table to stdout
//	diffuse-bench -real -realout BENCH_real.json # also write the JSON document
//	diffuse-bench -real -realpreset tiny         # CI smoke sizes
//	diffuse-bench -checkreal BENCH_real.json     # schema gate: validate and exit
//
// And the CI perf-regression gate: compare a freshly measured suite
// against the committed trajectory and exit nonzero if any matching row's
// ratio metrics (fused vs unfused, and the row vs its baseline) regressed
// beyond a floor derived from -comparetol (default 25%):
//
//	diffuse-bench -compare /tmp/fresh.json BENCH_real.json
//
// And the multi-tenant service-mode bench: aggregate streams/sec at each
// tenant count against one in-process diffuse-serve front end (see
// docs/SERVING.md):
//
//	diffuse-bench -serve                         # 1, 4, and 16 tenants
//	diffuse-bench -serve -tenants 1,8 -streams 16
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"diffuse/internal/bench"
	"diffuse/internal/core"
	"diffuse/internal/dist"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
	"diffuse/internal/serve"
)

func main() {
	// Distributed rank processes re-execute this binary; divert them into
	// the rank control loop before anything else (including flag parsing).
	dist.MaybeRankMain()
	var (
		figFlag   = flag.String("fig", "", "figure/table id: 9, 10a, 10b, 11a, 11b, 12a, 12b, 12c, 13")
		allFlag   = flag.Bool("all", false, "run everything")
		gpusFlag  = flag.String("gpus", "1,2,4,8,16,32,64,128", "comma-separated GPU counts")
		scaleFlag = flag.Float64("scale", 1.0, "per-GPU problem size multiplier")
		ablate    = flag.String("ablate", "", "ablation: taskonly | notemp | nomemo | window")

		realFlag   = flag.Bool("real", false, "run the real-execution macrobenchmark suite")
		realPreset = flag.String("realpreset", "full", "real suite preset: tiny | full")
		realProcs  = flag.Int("realprocs", 8, "real suite launch width (point tasks per index task)")
		realOut    = flag.String("realout", "", "write the real-suite JSON document to this path")
		checkReal  = flag.String("checkreal", "", "validate a BENCH_real.json against the schema and exit")
		compare    = flag.String("compare", "", "fresh suite JSON to compare against the committed trajectory (positional arg, default BENCH_real.json); exit nonzero on regression")
		compareTol = flag.Float64("comparetol", bench.DefaultCompareTolerance, "allowed fractional regression of ratio metrics before -compare fails")
		serveFlag  = flag.Bool("serve", false, "run the multi-tenant service-mode bench: streams/sec at each -tenants count against one in-process diffuse-serve")
		tenants    = flag.String("tenants", "1,4,16", "comma-separated tenant counts for -serve")
		streams    = flag.Int("streams", 8, "submissions per tenant for -serve")
	)
	flag.Parse()

	if *serveFlag {
		counts := parseCounts(*tenants, "tenant")
		req := serve.SubmitRequest{Workload: "chain", N: 4096, Iters: 6}
		if _, err := bench.RunServeBench(counts, *streams, req, *realProcs, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *compare != "" {
		committedPath := flag.Arg(0)
		if committedPath == "" {
			committedPath = "BENCH_real.json"
		}
		freshData, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		committedData, err := os.ReadFile(committedPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("comparing %s against committed %s (tolerance %.0f%%)\n", *compare, committedPath, *compareTol*100)
		regressions, err := bench.CompareRealSuites(freshData, committedData, *compareTol, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "%d perf regression(s) beyond %.0f%% tolerance\n", regressions, *compareTol*100)
			os.Exit(1)
		}
		fmt.Println("perf gate OK")
		return
	}

	gpus := parseGPUs(*gpusFlag)
	sc := bench.Scale(*scaleFlag)
	out := os.Stdout

	if *checkReal != "" {
		data, err := os.ReadFile(*checkReal)
		if err == nil {
			err = bench.ValidateRealSuite(data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: schema %s OK\n", *checkReal, bench.RealSchema)
		return
	}

	if *realFlag {
		suite, err := bench.RunRealSuite(*realPreset, *realProcs, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *realOut != "" {
			data, err := bench.MarshalRealSuite(suite)
			if err == nil {
				err = os.WriteFile(*realOut, data, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(out, "wrote %s\n", *realOut)
		}
		return
	}

	if *ablate != "" {
		runAblation(*ablate, sc, gpus)
		return
	}

	want := func(id string) bool {
		return *allFlag || *figFlag == "" || strings.EqualFold("fig"+*figFlag, id) || strings.EqualFold(*figFlag, id)
	}

	var headline []string
	for _, f := range bench.Figures(sc) {
		if !want(f.ID) {
			continue
		}
		series := f.Run(out, gpus)
		if len(series) >= 2 {
			g := bench.GeoMeanSpeedup(series[0], series[len(series)-1])
			headline = append(headline, fmt.Sprintf("%s: fused/unfused geo-mean %.2fx", f.ID, g))
		}
	}

	if want("fig9") {
		makers := bench.AppMakers(sc)
		var rows []bench.TaskStats
		for _, name := range bench.BenchmarkOrder {
			rows = append(rows, bench.MeasureTaskStats(name, makers[name], 4))
		}
		bench.PrintTaskStats(out, rows)
	}

	if want("fig13") {
		makers := bench.AppMakers(sc)
		var rows []bench.CompileStats
		for _, name := range bench.BenchmarkOrder {
			rows = append(rows, bench.MeasureCompileStats(name, makers[name], 2))
		}
		bench.PrintCompileStats(out, rows)
	}

	if len(headline) > 0 {
		fmt.Fprintln(out, "\n== headline ==")
		for _, h := range headline {
			fmt.Fprintln(out, " ", h)
		}
	}
}

func parseGPUs(s string) []int {
	return parseCounts(s, "gpu")
}

func parseCounts(s, what string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "bad %s count %q\n", what, part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// runAblation quantifies the design choices DESIGN.md calls out, on the CG
// workload at 8 GPUs.
func runAblation(kind string, sc bench.Scale, gpus []int) {
	mkCfg := func(mod func(*core.Config)) func(g int) bench.Instance {
		return func(g int) bench.Instance {
			cfg := core.DefaultConfig(g)
			cfg.Mode = legion.ModeSim
			cfg.Machine = machine.DefaultA100(g)
			mod(&cfg)
			ctx := bench.SimContextCfg(cfg)
			return bench.CGOn(ctx, sc)
		}
	}
	switch kind {
	case "taskonly":
		compare("kernel fusion ablation (CG, 8 GPUs)",
			bench.Variant{Name: "task+kernel", Make: mkCfg(func(*core.Config) {})},
			bench.Variant{Name: "task-only", Make: mkCfg(func(c *core.Config) { c.TaskFusionOnly = true })})
	case "notemp":
		compare("temporary elimination ablation (CG, 8 GPUs)",
			bench.Variant{Name: "with-temp-elim", Make: mkCfg(func(*core.Config) {})},
			bench.Variant{Name: "no-temp-elim", Make: mkCfg(func(c *core.Config) { c.NoTempElim = true })})
	case "nomemo":
		compare("memoization ablation (CG, 8 GPUs)",
			bench.Variant{Name: "with-memo", Make: mkCfg(func(*core.Config) {})},
			bench.Variant{Name: "no-memo", Make: mkCfg(func(c *core.Config) { c.NoMemo = true })})
	case "window":
		fmt.Println("window-size sensitivity (CG, 8 GPUs)")
		for _, w := range []int{1, 2, 5, 10, 20, 40, 80} {
			v := bench.Variant{Name: fmt.Sprintf("w=%d", w), Make: mkCfg(func(c *core.Config) {
				c.InitialWindow = w
				c.MaxWindow = w
			})}
			s := bench.WeakScale(v, []int{8}, 4, 10)
			fmt.Printf("  window %3d: %8.2f iters/s\n", w, s.Throughput[8])
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown ablation %q\n", kind)
		os.Exit(2)
	}
}

func compare(title string, a, b bench.Variant) {
	fmt.Println(title)
	sa := bench.WeakScale(a, []int{8}, 4, 10)
	sb := bench.WeakScale(b, []int{8}, 4, 10)
	fmt.Printf("  %-16s %8.2f iters/s\n", a.Name, sa.Throughput[8])
	fmt.Printf("  %-16s %8.2f iters/s\n", b.Name, sb.Throughput[8])
	fmt.Printf("  ratio: %.2fx\n", sa.Throughput[8]/sb.Throughput[8])
}
