package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"diffuse/internal/core"
	"diffuse/internal/serve"
)

// metric is one reported number.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int    // samples behind the value
	Note    string // how to read it, printed in the report
}

// report is one workload run's result.
type report struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
}

func (r *report) add(name, unit string, v float64, samples int, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, Samples: samples, Note: note})
}

// quantile adds a millisecond percentile, noting when fewer than
// minBeyond samples lie beyond it.
func (r *report) quantile(name string, q quantile) {
	note := fmt.Sprintf("p%d, %d beyond", q.Pct, q.Beyond)
	if !q.Supported() {
		note += fmt.Sprintf("; under-sampled, needs n >= %d", minSamplesFor(q.Pct))
	}
	r.add(name, "ms", q.Value, q.N, note)
}

// counts is the subset of the program's counters the per-layer split
// reads, as float64 so deltas and sums stay one loop.
type counts struct {
	submitted, emitted, fusedOriginals, temps, memoHits, memoMisses float64
	inline, pooled, chunks, steals                                  float64
	groups, halos, fallbacks                                        float64
	cgCompiled, cgInterpreted                                       float64
}

// readCounts snapshots core.Stats and, when this process executes the
// kernels, the executing legion runtime's ExecStats, ShardStatsSnapshot
// and CodegenStatsSnapshot.
func readCounts(rt *core.Runtime, tr *tracer) counts {
	s := rt.Stats()
	c := counts{
		submitted: float64(s.Submitted), emitted: float64(s.Emitted),
		fusedOriginals: float64(s.FusedOriginals), temps: float64(s.TempsEliminated),
		memoHits: float64(s.MemoHits), memoMisses: float64(s.MemoMisses),
	}
	if tr != nil && tr.exec != nil {
		e := tr.exec.ExecStats()
		sh := tr.exec.ShardStatsSnapshot()
		cg := tr.exec.CodegenStatsSnapshot()
		c.inline, c.pooled, c.chunks, c.steals = float64(e.InlineTasks), float64(e.PoolTasks), float64(e.Chunks), float64(e.Steals)
		c.groups, c.halos, c.fallbacks = float64(sh.Groups), float64(sh.HaloExchanges), float64(sh.Fallbacks)
		c.cgCompiled, c.cgInterpreted = float64(cg.TasksCompiled), float64(cg.TasksInterpreted)
	}
	return c
}

func (c *counts) fields() []*float64 {
	return []*float64{
		&c.submitted, &c.emitted, &c.fusedOriginals, &c.temps, &c.memoHits, &c.memoMisses,
		&c.inline, &c.pooled, &c.chunks, &c.steals, &c.groups, &c.halos, &c.fallbacks,
		&c.cgCompiled, &c.cgInterpreted,
	}
}

func (c counts) combine(o counts, sign float64) counts {
	out := c
	of, dst := o.fields(), out.fields()
	for i, p := range dst {
		*p += sign * *of[i]
	}
	return out
}

func (c counts) sub(o counts) counts { return c.combine(o, -1) }
func (c counts) add(o counts) counts { return c.combine(o, 1) }

// layerInput is what the per-layer split is computed from: totals over
// the traced windows (or serve submissions) of one traced pass.
type layerInput struct {
	rt          *core.Runtime
	tr          *tracer
	iters       float64       // iterations (serve: completed submissions)
	wall        time.Duration // summed window (serve: service) time
	layers      layerTimes
	counts      counts
	distributed bool
	overhead    float64 // traced ÷ untraced median wall
	drift       float64 // untraced last-tenth ÷ first-tenth median
	serve       *serveLayers
}

// serveLayers is the serve layer's share of the split, from the stats op
// and the load generator.
type serveLayers struct {
	legionBusy, rejected, batched, planHits, genLateP99 float64
	submitP99                                           quantile // untraced fixed-rate phase
	maxRate                                             float64
	rungs                                               int
}

// layerMetrics adds every per-layer metric. Counters of a layer the
// workload does not reach read 0: dist on in-process runs, serve on the
// window workloads, and the executor counters on chain-ranks2, whose
// executors run in the rank processes.
func (r *report) layerMetrics(in layerInput) {
	n := int(in.iters)
	per := func(v float64) float64 { return ratio(v, in.iters) }
	perMs := func(d time.Duration) float64 { return per(ms(d)) }
	c, l := in.counts, in.layers
	front := in.wall - l.Legion()
	st := in.rt.Stats()

	r.add("core.frontend_ms_per_iter", "ms", perMs(front), n, "wall minus time inside legion calls")
	r.add("core.frontend_share", "ratio", ratio(ms(front), ms(in.wall)), n, "")
	r.add("core.tasks_submitted_per_iter", "count", per(c.submitted), n, "")
	r.add("core.tasks_emitted_per_iter", "count", per(c.emitted), n, "")
	r.add("core.fusion_ratio", "ratio", ratio(c.fusedOriginals, c.submitted), n, "submitted tasks folded into fusions")
	r.add("core.memo_hit_ratio", "ratio", ratio(c.memoHits, c.memoHits+c.memoMisses), n, "")
	r.add("core.temps_eliminated_per_iter", "count", per(c.temps), n, "")
	r.add("core.window_size", "count", float64(st.WindowSize), 1, "adaptive window at the end of the pass")

	r.add("kir.compile_ms", "ms", st.CompileSeconds*1000, int(st.KernelsCompiled), "fused-kernel JIT since runtime creation")
	r.add("kir.kernels_compiled", "count", float64(st.KernelsCompiled), 1, "")
	r.add("kir.computed_bytes_per_iter", "B", per(float64(l.ComputedBytes)), n, "computed from Compiled.Cost().Bytes x points, not measured")
	r.add("kir.codegen_task_share", "ratio", ratio(c.cgCompiled, c.cgCompiled+c.cgInterpreted), n, "")
	var hits, misses float64
	if in.tr.exec != nil {
		cg := in.tr.exec.CodegenStatsSnapshot()
		hits, misses = float64(cg.CacheHits), float64(cg.CacheMisses)
	}
	r.add("kir.program_cache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses), "since runtime creation")

	r.add("legion.execute_ms_per_iter", "ms", perMs(l.Execute), n, "")
	r.add("legion.drain_ms_per_iter", "ms", perMs(l.Drain), n, "")
	r.add("legion.read_ms_per_iter", "ms", perMs(l.Read), n, "")
	r.add("legion.share", "ratio", ratio(ms(l.Legion()), ms(in.wall)), n, "time inside legion calls over wall")
	r.add("legion.inline_task_share", "ratio", ratio(c.inline, c.inline+c.pooled), n, "")
	r.add("legion.chunks_per_pool_task", "count", ratio(c.chunks, c.pooled), n, "")
	r.add("legion.steals_per_iter", "count", per(c.steals), n, "")
	r.add("legion.shard_groups_per_iter", "count", per(c.groups), n, "")
	r.add("legion.halo_exchanges_per_iter", "count", per(c.halos), n, "")
	r.add("legion.shard_fallbacks_per_iter", "count", per(c.fallbacks), n, "")
	var interp float64
	if in.tr.exec != nil {
		interp = float64(in.tr.exec.CalibrationStatsOf().InterpRoutes)
	}
	r.add("legion.calibration_interp_routes", "count", interp, 1, "since runtime creation")

	var send, wait time.Duration
	if in.distributed {
		send, wait = l.Execute+l.Drain+l.Write+l.Free, l.Read
	}
	r.add("dist.send_ms_per_iter", "ms", perMs(send), n, "parent time forwarding calls: encode and send")
	r.add("dist.wait_ms_per_iter", "ms", perMs(wait), n, "parent time blocked in reads")
	r.add("dist.wait_share", "ratio", ratio(ms(wait), ms(in.wall)), n, "")

	sv := in.serve
	if sv == nil {
		sv = &serveLayers{}
	}
	r.add("serve.legion_busy_share", "ratio", sv.legionBusy, n, "")
	r.add("serve.rejected_share", "ratio", sv.rejected, n, "")
	r.add("serve.batched_share", "ratio", sv.batched, n, "")
	r.add("serve.plan_hit_ratio", "ratio", sv.planHits, n, "")
	r.add("serve.gen_late_ms_p99", "ms", sv.genLateP99, n, "")
	r.add("serve.submit_ms_p99", "ms", sv.submitP99.Value, sv.submitP99.N, fmt.Sprintf("untraced fixed-rate phase, %d beyond", sv.submitP99.Beyond))
	r.add("serve.max_rate_rps", "1/s", sv.maxRate, sv.rungs, fmt.Sprintf("highest offered rate with p99 <= %v and no growing backlog", latencyLimit))

	r.add("trace.overhead_ratio", "ratio", in.overhead, n, "traced median wall over untraced median wall")
	r.add("bench.drift_ratio", "ratio", in.drift, n, "last-tenth over first-tenth median window, untraced pass")
}

// serveShares derives the serve layer's ratios from a stats-op snapshot.
func serveShares(s *serve.StatsSnapshot) (rejected, batched, planHits float64) {
	var adm, rej, done, bat, hit, miss float64
	for _, t := range s.Tenants {
		adm += float64(t.Admitted)
		rej += float64(t.Rejected)
		done += float64(t.Completed)
		bat += float64(t.Batched)
		hit += float64(t.PlanHits)
		miss += float64(t.PlanMisses)
	}
	return ratio(rej, adm+rej), ratio(bat, done), ratio(hit, hit+miss)
}

// digest hashes values by bit pattern (FNV-1a over little-endian float64
// bits): equal digests mean bit-identical values.
func digest(vals []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// peakRSSMB is this process's VmHWM.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// childrenPeakRSSMB is the largest max RSS of any reaped child process —
// the rank processes, once the distributed runtime has closed.
func childrenPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
