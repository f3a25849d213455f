package legion

import (
	"fmt"
	"sync"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// executeReal runs the task's point tasks over real buffers through the
// active executor policy: the persistent chunked pool (default) or the
// per-point-goroutine baseline.
func (rt *Runtime) executeReal(t *ir.Task) {
	if rt.policy == ExecPerPoint {
		rt.executePerPoint(t)
		return
	}
	rt.executeChunked(t)
}

// executePerPoint is the v1 executor, kept as the chunked executor's
// bit-identity oracle: one goroutine per point task behind a semaphore,
// with bindings resolved afresh at every point.
func (rt *Runtime) executePerPoint(t *ir.Task) {
	if t.Kernel == nil {
		panic(fmt.Sprintf("legion: task %s has no kernel", t.Name))
	}
	comp := rt.Compiled(t.Kernel)
	rt.countBackend(comp)
	colors := t.Launch.Points()
	n := len(colors)

	// Pre-resolve regions (serialized; allocation may occur) and reduction
	// partials.
	data := make([]kir.Buffer, len(t.Args))
	var redArgs []int
	for i, a := range t.Args {
		if t.Kernel.Local[i] {
			continue // temporary-eliminated: no region
		}
		r := rt.regionFor(a.Store, a.Red)
		data[i] = r.data
		if a.Priv.Reduces() {
			redArgs = append(redArgs, i)
		}
	}
	// Per-point partial cells for reductions (combined after the barrier,
	// mirroring Legion's reduction instances), typed at the destination's
	// dtype so reduced-precision reductions round exactly where a typed
	// region cell would.
	partials := map[int]kir.Buffer{}
	for _, i := range redArgs {
		p := kir.AllocBuffer(t.Args[i].Store.DType(), n)
		p.Fill(redOpOf(t.Args[i].Red).Identity())
		partials[i] = p
	}

	payload, _ := t.Payload.(*Payload)

	var wg sync.WaitGroup
	sem := make(chan struct{}, rt.workers)
	for pi, color := range colors {
		wg.Add(1)
		sem <- struct{}{}
		go func(pi int, color ir.Point) {
			defer func() { <-sem; wg.Done() }()
			rt.runPoint(t, comp, data, partials, payload, pi, color)
		}(pi, color)
	}
	wg.Wait()

	// Fold reduction partials into the destination cells.
	for _, i := range redArgs {
		foldPartialCell(redOpOf(t.Args[i].Red), data[i], partials[i])
	}
}

// foldPartialCell combines per-point partial cells into the destination
// cell in point order — the single fold sequence both executors share, so
// results are bit-identical per dtype under any scheduling. The combine
// runs in float64 and each step is observed through the typed partial
// cells, with one final rounding at the destination's dtype.
func foldPartialCell(op kir.RedOp, cell, partials kir.Buffer) {
	acc := cell.Get(0)
	n := partials.Len()
	for j := 0; j < n; j++ {
		acc = op.Combine(acc, partials.Get(j))
	}
	cell.Set(0, acc)
}

func redOpOf(op ir.ReduceOp) kir.RedOp {
	switch op {
	case ir.RedMax:
		return kir.RedMax
	case ir.RedMin:
		return kir.RedMin
	default:
		return kir.RedSum
	}
}

// runPoint builds the kir bindings for one point task and executes it.
func (rt *Runtime) runPoint(t *ir.Task, comp *kir.Compiled, data []kir.Buffer, partials map[int]kir.Buffer, payload *Payload, pi int, color ir.Point) {
	pa := &kir.PointArgs{
		Bind:    make([]kir.Binding, len(t.Args)),
		Scratch: rt.scratch.Get().(*kir.Scratch),
	}
	defer rt.scratch.Put(pa.Scratch)

	for i, a := range t.Args {
		pa.Bind[i] = rt.bindArg(a, data[i], partials[i], pi, color, t.Kernel.Local[i])
	}
	if payload != nil && len(payload.CSR) > 0 {
		pa.Payloads = map[int]*kir.CSRLocal{}
		for k, prov := range payload.CSR {
			pa.Payloads[k] = prov.Local(pi)
		}
	}
	comp.Execute(pa)
}

// bindArg computes the accessor and local extents of one argument at one
// color.
func (rt *Runtime) bindArg(a ir.Arg, data kir.Buffer, partial kir.Buffer, pi int, color ir.Point, local bool) kir.Binding {
	shape := a.Store.Shape()
	strides := a.Store.Strides()
	ext := a.Part.LocalExtents(color, shape)

	if a.Priv.Reduces() && !partial.IsNil() {
		// Reductions accumulate into the point's private cell.
		return kir.Binding{
			Acc: kir.Accessor{Data: partial, Base: pi, Strides: []int{0}},
			Ext: []int{1},
		}
	}

	switch p := a.Part.(type) {
	case *ir.NonePart:
		return kir.Binding{
			Acc: kir.Accessor{Data: data, Base: 0, Strides: strides},
			Ext: ext,
		}
	case *ir.TilingPart:
		c := p.Proj.Apply(color)
		base := 0
		accStr := make([]int, len(shape))
		for d := range shape {
			first := p.Offset[d] + c[d]*p.Tile[d]*p.Stride[d]
			base += first * strides[d]
			accStr[d] = p.Stride[d] * strides[d]
		}
		return kir.Binding{
			Acc: kir.Accessor{Data: data, Base: base, Strides: accStr},
			Ext: ext,
		}
	default:
		panic(fmt.Sprintf("legion: unknown partition kind %T", a.Part))
	}
}

// executeSim advances the machine simulation by one index task without
// touching data.
func (rt *Runtime) executeSim(t *ir.Task) {
	if t.Kernel == nil {
		panic(fmt.Sprintf("legion: task %s has no kernel", t.Name))
	}
	comp := rt.Compiled(t.Kernel)
	payload, _ := t.Payload.(*Payload)
	var stats kir.SpMVStats
	if payload != nil {
		stats = func(key int) (float64, float64, kir.DType) {
			prov, ok := payload.CSR[key]
			if !ok {
				return 0, 0, kir.F64
			}
			rows, nnz := prov.Stats()
			return rows, nnz, prov.ValDType()
		}
	}
	cost := comp.Cost(stats)
	n := t.Launch.Size()
	sec := rt.sim.ComputeCost(cost.Bytes, cost.Flops, cost.Launches)
	rt.sim.KernelCount += int64(cost.Launches)
	rt.sim.IndexTask(n, func(int) float64 { return sec })
	// Reductions imply a combine step visible to subsequent readers; the
	// allreduce is charged at the read (coherence), matching Legion's lazy
	// reduction instances.
}
