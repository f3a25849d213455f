package main

import (
	"sync/atomic"
	"time"

	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
)

// tracer is the traced run's timing decorator on the legion execution seam
// (legion.RemoteBackend). Installed with rt.Legion().SetRemote, it sees
// every call the fusion layer and the libraries make into legion, times
// it, and forwards it unchanged: in-process to an identically configured
// inner legion.Runtime, and on a distributed runtime to the existing
// dist.Parent. Serve workers call it concurrently, so every accumulator is
// atomic.
type tracer struct {
	inner legion.RemoteBackend
	// exec is the runtime that executes kernels in this process, nil on a
	// distributed runtime (the ranks execute; their counters stay there).
	exec *legion.Runtime
	// compiled returns the compiled form of an emitted kernel, for the
	// computed-bytes count.
	compiled func(*kir.Kernel) *kir.Compiled

	executeNs, drainNs, readNs, writeNs, freeNs atomic.Int64
	executes, reads                             atomic.Int64
	// computedBytes sums Cost().Bytes × points over executed tasks: the
	// cost model's traffic, not a hardware measurement.
	computedBytes atomic.Int64
}

// layerTimes is a snapshot of a tracer's accumulators.
type layerTimes struct {
	Execute, Drain, Read, Write, Free time.Duration
	Executes, Reads                   int64
	ComputedBytes                     int64
}

// Legion is the total time spent inside legion calls.
func (l layerTimes) Legion() time.Duration {
	return l.Execute + l.Drain + l.Read + l.Write + l.Free
}

// Sub returns l − o field by field.
func (l layerTimes) Sub(o layerTimes) layerTimes {
	return layerTimes{
		Execute: l.Execute - o.Execute, Drain: l.Drain - o.Drain, Read: l.Read - o.Read,
		Write: l.Write - o.Write, Free: l.Free - o.Free,
		Executes: l.Executes - o.Executes, Reads: l.Reads - o.Reads,
		ComputedBytes: l.ComputedBytes - o.ComputedBytes,
	}
}

// Add returns l + o field by field.
func (l layerTimes) Add(o layerTimes) layerTimes {
	return layerTimes{
		Execute: l.Execute + o.Execute, Drain: l.Drain + o.Drain, Read: l.Read + o.Read,
		Write: l.Write + o.Write, Free: l.Free + o.Free,
		Executes: l.Executes + o.Executes, Reads: l.Reads + o.Reads,
		ComputedBytes: l.ComputedBytes + o.ComputedBytes,
	}
}

// snapshot reads the accumulators; a nil tracer reads as zero, so untraced
// runs share the code path.
func (t *tracer) snapshot() layerTimes {
	if t == nil {
		return layerTimes{}
	}
	return layerTimes{
		Execute: time.Duration(t.executeNs.Load()), Drain: time.Duration(t.drainNs.Load()),
		Read: time.Duration(t.readNs.Load()), Write: time.Duration(t.writeNs.Load()),
		Free: time.Duration(t.freeNs.Load()), Executes: t.executes.Load(),
		Reads: t.reads.Load(), ComputedBytes: t.computedBytes.Load(),
	}
}

// installTracer puts a tracer on rt's legion seam. It must run before any
// task executes: in-process, the inner runtime it creates owns all data.
func installTracer(rt *core.Runtime) *tracer {
	leg := rt.Legion()
	t := &tracer{}
	if rb := leg.Remote(); rb != nil {
		t.inner, t.compiled = rb, leg.Compiled
	} else {
		cfg := rt.Config()
		in := legion.New(cfg.Mode, cfg.Machine)
		in.SetExecPolicy(cfg.Exec)
		in.SetShards(cfg.Shards)
		in.SetWavefront(cfg.Wavefront)
		in.SetCodegen(cfg.Codegen)
		in.SetFeedback(cfg.Feedback)
		t.inner, t.exec, t.compiled = localBackend{in}, in, in.Compiled
	}
	leg.SetRemote(t)
	return t
}

func (t *tracer) timed(acc *atomic.Int64, f func()) {
	t0 := time.Now()
	f()
	acc.Add(int64(time.Since(t0)))
}

// Execute implements legion.RemoteBackend.
func (t *tracer) Execute(task *ir.Task) {
	if task.Kernel != nil && task.Payload == nil {
		c := t.compiled(task.Kernel).Cost(nil)
		t.computedBytes.Add(int64(c.Bytes * float64(task.Launch.Size())))
	}
	t.executes.Add(1)
	t.timed(&t.executeNs, func() { t.inner.Execute(task) })
}

// ReadAt implements legion.RemoteBackend.
func (t *tracer) ReadAt(s *ir.Store, off int) (v float64, ok bool) {
	t.reads.Add(1)
	t.timed(&t.readNs, func() { v, ok = t.inner.ReadAt(s, off) })
	return v, ok
}

// ReadAll implements legion.RemoteBackend.
func (t *tracer) ReadAll(s *ir.Store) (out []float64) {
	t.reads.Add(1)
	t.timed(&t.readNs, func() { out = t.inner.ReadAll(s) })
	return out
}

// ReadAll32 implements legion.RemoteBackend.
func (t *tracer) ReadAll32(s *ir.Store) (out []float32) {
	t.reads.Add(1)
	t.timed(&t.readNs, func() { out = t.inner.ReadAll32(s) })
	return out
}

// WriteAll implements legion.RemoteBackend.
func (t *tracer) WriteAll(s *ir.Store, data []float64) {
	t.timed(&t.writeNs, func() { t.inner.WriteAll(s, data) })
}

// WriteAll32 implements legion.RemoteBackend.
func (t *tracer) WriteAll32(s *ir.Store, data []float32) {
	t.timed(&t.writeNs, func() { t.inner.WriteAll32(s, data) })
}

// FreeStore implements legion.RemoteBackend.
func (t *tracer) FreeStore(id ir.StoreID) {
	t.timed(&t.freeNs, func() { t.inner.FreeStore(id) })
}

// Drain implements legion.RemoteBackend.
func (t *tracer) Drain() {
	t.timed(&t.drainNs, func() { t.inner.Drain() })
}

// Close implements legion.RemoteBackend.
func (t *tracer) Close() error { return t.inner.Close() }

// localBackend presents an in-process legion.Runtime as a RemoteBackend.
type localBackend struct{ *legion.Runtime }

func (b localBackend) Drain()       { b.DrainShardGroup() }
func (b localBackend) Close() error { return nil }

var _ legion.RemoteBackend = (*tracer)(nil)
