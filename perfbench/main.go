// Command perfbench is the repository benchmark: four workloads, each run
// through the public packages to a real completion point and checked
// bit-for-bit against a reference oracle. See NOTES.md for why each
// workload exists and which layer metric should move which end-to-end
// metric.
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload chain-shards2 --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload in turn. The report goes to standard
// error; the last line of standard output is the JSON result. --trace 0
// prints the end-to-end metrics, --trace 1 the per-layer split of a traced
// run, measured by a timing decorator on the legion execution seam.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"diffuse/internal/dist"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	log     io.Writer
}

func (o options) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

type runFunc func(options) (*report, error)

type workload struct {
	name string
	run  runFunc
}

var workloads = []workload{
	{"swe-small", runWindowed(sweSmall)},
	{"chain-shards2", runWindowed(chainShards2)},
	{"chain-ranks2", runWindowed(chainRanks2)},
	{"serve-mixed", runServeMixed},
}

// endToEnd lists the metrics a --trace 0 run must print, with units.
var endToEnd = [][2]string{
	{"iter_ms_p50", "ms"}, {"iter_ms_p90", "ms"},
	{"submit_ms_p50", "ms"}, {"served_rps", "1/s"},
	{"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

func main() {
	// Rank subprocesses of chain-ranks2 re-execute this binary.
	dist.MaybeRankMain()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer split")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s or all), --seconds > 0, --trace 0|1\n", names())
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, log: stderr}
	for _, w := range chosen {
		fmt.Fprintf(stderr, "== %s (seed %d, %gs, trace %d, GOMAXPROCS %d)\n", w.name, o.seed, o.seconds, *trace, runtime.GOMAXPROCS(0))
		r, err := runSafely(w.run, o)
		if err == nil && !o.trace {
			err = r.checkEndToEnd()
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		r.print(stderr)
		if err := r.writeJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// runSafely turns a panic outside the measured passes (set-up, the
// oracle) into an error: no result is printed for such a run.
func runSafely(f runFunc, o options) (r *report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f(o)
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// checkEndToEnd verifies that every end-to-end metric is present with its
// unit.
func (r *report) checkEndToEnd() error {
	for _, want := range endToEnd {
		found := false
		for _, m := range r.metrics {
			if m.Name == want[0] {
				found = true
				if m.Unit != want[1] {
					return fmt.Errorf("metric %s in %s, want %s", m.Name, m.Unit, want[1])
				}
			}
		}
		if !found {
			return fmt.Errorf("metric %s missing", want[0])
		}
	}
	return nil
}

// print writes the human-readable report: every metric with its unit and
// sample count.
func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%-6d %s\n", m.Name, m.Value, m.Unit, m.Samples, m.Note)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", r.correct, r.attempted, r.failed)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeJSON prints the result line.
func (r *report) writeJSON(w io.Writer) error {
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		out.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
