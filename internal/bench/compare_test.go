package bench

import (
	"bytes"
	"strings"
	"testing"
)

func suiteJSON(t *testing.T, s *RealSuite) []byte {
	t.Helper()
	data, err := MarshalRealSuite(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// gateSuite is a small valid suite: an unsharded engine row, its sharded
// and distributed variants measured against it, and a serve pair.
func gateSuite() *RealSuite {
	eng := func(shards, ranks int, fusion float64, baseline string, vs float64) RealResult {
		return RealResult{App: "A", Size: "tiny", N: 64, Procs: 8, Shards: shards, Ranks: ranks,
			Variant: "default", DType: "f64", Fused: true, Iters: 3, NsPerIter: 100,
			FusionSpeedup: fusion, Baseline: baseline, SpeedupVsBaseline: vs,
			TasksPerIter: 5, FusionRatio: 0.5}
	}
	srv := func(tenants int, baseline string, vs float64) RealResult {
		return RealResult{App: "S", Size: "tiny", N: 64, Procs: 8, Shards: 1, Tenants: tenants,
			Variant: "default", DType: "f64", Fused: true, Iters: 3, NsPerIter: 100,
			Baseline: baseline, SpeedupVsBaseline: vs, StreamsPerSec: 10, ServePlanCacheHits: 1}
	}
	return &RealSuite{Schema: RealSchema, Command: "test", GoMaxProcs: 2, Procs: 8, Preset: "tiny",
		Results: []RealResult{
			eng(1, 0, 2.0, "", 0),
			eng(4, 0, 2.0, "A/tiny", 1.6),
			eng(2, 2, 2.0, "A/tiny", 1.0),
			srv(1, "", 0),
			srv(4, "S/tiny/tenants=1", 2.0),
		}}
}

// Row indices into gateSuite().Results.
const (
	gatePlain = iota
	gateSharded
	gateRanks
	gateServe1
	gateServe4
)

// TestCompareRealSuites drives the generic gate: fusion_speedup at tol,
// speedup_vs_baseline at 2·tol, both at 3·tol on multi-process and
// multi-tenant rows (the factors do not compound), unmatched rows skipped, and
// harness mismatches reported as errors. The tolerance is 0.25.
func TestCompareRealSuites(t *testing.T) {
	cases := []struct {
		name    string
		edit    func(s *RealSuite)
		want    int    // regressions
		wantOut string // substring of the report
		wantErr bool
	}{
		{name: "identical", edit: func(*RealSuite) {}, wantOut: "ok A/tiny/fused=true: fusion_speedup"},
		{name: "within-case floor holds", edit: func(s *RealSuite) { s.Results[gatePlain].FusionSpeedup = 1.6 }},
		{name: "within-case floor breaks", edit: func(s *RealSuite) { s.Results[gatePlain].FusionSpeedup = 1.4 },
			want: 1, wantOut: "REGRESSION A/tiny/fused=true: fusion_speedup"},
		{name: "cross-row floor holds", edit: func(s *RealSuite) { s.Results[gateSharded].SpeedupVsBaseline = 0.9 }},
		{name: "cross-row floor breaks", edit: func(s *RealSuite) { s.Results[gateSharded].SpeedupVsBaseline = 0.7 },
			want: 1, wantOut: "REGRESSION A/tiny/shards=4/fused=true: speedup_vs_baseline"},
		{name: "ranks row within-case floor tripled", edit: func(s *RealSuite) { s.Results[gateRanks].FusionSpeedup = 0.6 }},
		{name: "ranks row within-case floor breaks", edit: func(s *RealSuite) { s.Results[gateRanks].FusionSpeedup = 0.4 }, want: 1},
		{name: "ranks row cross-row floor tripled", edit: func(s *RealSuite) { s.Results[gateRanks].SpeedupVsBaseline = 0.3 }},
		{name: "ranks row cross-row floor does not compound", edit: func(s *RealSuite) { s.Results[gateRanks].SpeedupVsBaseline = 0.15 }, want: 1},
		{name: "tenants row cross-row floor tripled", edit: func(s *RealSuite) { s.Results[gateServe4].SpeedupVsBaseline = 0.6 }},
		{name: "tenants row cross-row floor does not compound", edit: func(s *RealSuite) { s.Results[gateServe4].SpeedupVsBaseline = 0.3 },
			want: 1, wantOut: "REGRESSION S/tiny/tenants=4/fused=true"},
		{name: "unmatched row skipped", edit: func(s *RealSuite) {
			extra := s.Results[gatePlain]
			extra.App = "B"
			s.Results = append(s.Results, extra)
		}, wantOut: "skip B/tiny/fused=true"},
		{name: "no row matches", edit: func(s *RealSuite) {
			s.Results = s.Results[gateServe1 : gateServe1+1]
			s.Results[0].App = "Z"
		}, wantErr: true},
		{name: "gomaxprocs mismatch", edit: func(s *RealSuite) { s.GoMaxProcs = 4 }, wantErr: true},
	}
	committed := suiteJSON(t, gateSuite())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := gateSuite()
			tc.edit(fresh)
			var out bytes.Buffer
			n, err := CompareRealSuites(suiteJSON(t, fresh), committed, 0.25, &out)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v\n%s", err, tc.wantErr, out.String())
			}
			if n != tc.want {
				t.Fatalf("regressions = %d, want %d\n%s", n, tc.want, out.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Fatalf("report lacks %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}

// TestValidateRejectsUnshardedBarrierRow: the barrier variant only makes
// sense on sharded rows.
func TestValidateRejectsUnshardedBarrierRow(t *testing.T) {
	s := gateSuite()
	s.Results[gatePlain].Variant = "barrier"
	if err := ValidateRealSuite(suiteJSON(t, s)); err == nil {
		t.Fatal("unsharded stage-barrier row should fail validation")
	}
}

// TestValidateRejectsCrossRowViolations: a baseline must name an earlier
// row, a ratio needs a baseline, and serve metrics belong to serve rows.
func TestValidateRejectsCrossRowViolations(t *testing.T) {
	if err := ValidateRealSuite(suiteJSON(t, gateSuite())); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	cases := map[string]func(s *RealSuite){
		"missing baseline": func(s *RealSuite) { s.Results[gateSharded].Baseline = "A/huge" },
		"later baseline": func(s *RealSuite) {
			s.Results[gatePlain], s.Results[gateSharded] = s.Results[gateSharded], s.Results[gatePlain]
		},
		"ratio without baseline":         func(s *RealSuite) { s.Results[gateSharded].Baseline = "" },
		"serve metrics on an engine row": func(s *RealSuite) { s.Results[gatePlain].StreamsPerSec = 10 },
	}
	for name, edit := range cases {
		s := gateSuite()
		edit(s)
		if err := ValidateRealSuite(suiteJSON(t, s)); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}
