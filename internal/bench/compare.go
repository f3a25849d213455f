package bench

// The CI perf-regression gate behind `diffuse-bench -compare`: a freshly
// measured suite (CI runs the tiny preset) is matched row by row against
// the committed trajectory, and the gate fails when a matching row's
// *ratio* metrics regress beyond the tolerance. Absolute ns/iter are
// machine-dependent — a CI runner and the machine that produced the
// committed file share almost nothing — but each row's ratios (fused vs
// unfused, and the row vs its baseline) are measured within one run on
// one machine, so a collapse there means the code, not the hardware, got
// slower. The committed full trajectory includes the tiny smoke rows
// precisely so CI's fresh tiny run has exact identity matches.

import (
	"encoding/json"
	"fmt"
	"io"
)

// DefaultCompareTolerance is the fraction a ratio metric may fall below
// its committed value before the gate fails (0.25 = fail under 75% of the
// committed ratio). Tiny-preset rows run few iterations, so the gate
// deliberately ignores noise-sized wobble and catches collapses.
const DefaultCompareTolerance = 0.25

// CompareRealSuites validates both documents against the current schema,
// matches fresh rows to committed rows by identity, and reports every
// ratio metric that regressed by more than its floor. Fresh rows with no
// committed match are reported (not failed) — a new workload lands in the
// fresh file one PR before its trajectory is committed. Returns the number
// of regressions (0 = gate passes).
//
// The floor is derived from the row. fusion_speedup divides two runs
// measured interleaved within one case and gets tol; speedup_vs_baseline
// divides two rows measured apart and carries twice the noise, so it gets
// 2·tol. When the row or its baseline runs more than one process or
// tenant, whose time also moves with how the OS schedules them, both get
// 3·tol: the scheduling factor replaces the cross-row doubling rather
// than compounding it. No tolerance exceeds 0.9.
func CompareRealSuites(freshData, committedData []byte, tol float64, w io.Writer) (int, error) {
	if tol <= 0 {
		tol = DefaultCompareTolerance
	}
	fresh, err := decodeSuite(freshData)
	if err != nil {
		return 0, fmt.Errorf("fresh suite: %w", err)
	}
	committed, err := decodeSuite(committedData)
	if err != nil {
		return 0, fmt.Errorf("committed suite: %w", err)
	}
	// Ratios shift with core count for hardware reasons, so a comparison
	// is only meaningful at the committed trajectory's parallelism. The
	// CI job pins GOMAXPROCS to the committed file's value; a mismatch
	// here means the harness contract broke, not the code.
	if fresh.GoMaxProcs != committed.GoMaxProcs {
		return 0, fmt.Errorf("bench: fresh suite ran at GOMAXPROCS=%d but the committed trajectory was recorded at %d — rerun with GOMAXPROCS=%d (or regenerate the trajectory)",
			fresh.GoMaxProcs, committed.GoMaxProcs, committed.GoMaxProcs)
	}
	freshRows, committedRows := fresh.byID(), committed.byID()
	regressions, matched := 0, 0
	for _, fr := range fresh.Results {
		name := fmt.Sprintf("%s/fused=%v", fr.key(), fr.Fused)
		cr, ok := committedRows[fr.id()]
		if !ok || cr.N != fr.N {
			fmt.Fprintf(w, "  skip %s: no committed row\n", name)
			continue
		}
		matched++
		within, cross := tol, 2*tol
		base, hasBase := freshRows[rowID{fr.Baseline, fr.Fused}]
		if fr.multiProcess() || hasBase && base.multiProcess() {
			within, cross = 3*tol, 3*tol
		}
		check := func(metric string, got, want, mtol float64) {
			if want <= 0 || got <= 0 {
				return // metric absent on one side
			}
			floor := want * (1 - min(mtol, 0.9))
			if got < floor {
				regressions++
				fmt.Fprintf(w, "  REGRESSION %s: %s %.2fx, committed %.2fx (floor %.2fx)\n", name, metric, got, want, floor)
			} else {
				fmt.Fprintf(w, "  ok %s: %s %.2fx vs %.2fx\n", name, metric, got, want)
			}
		}
		check("fusion_speedup", fr.FusionSpeedup, cr.FusionSpeedup, within)
		check("speedup_vs_baseline", fr.SpeedupVsBaseline, cr.SpeedupVsBaseline, cross)
	}
	if matched == 0 {
		return 0, fmt.Errorf("bench: no fresh row matched any committed row — presets out of sync")
	}
	return regressions, nil
}

// byID indexes the suite's rows by identity.
func (s *RealSuite) byID() map[rowID]RealResult {
	m := make(map[rowID]RealResult, len(s.Results))
	for _, r := range s.Results {
		m[r.id()] = r
	}
	return m
}

func decodeSuite(data []byte) (*RealSuite, error) {
	if err := ValidateRealSuite(data); err != nil {
		return nil, err
	}
	var s RealSuite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}
