package ir_test

// Property test for the distributed control-stream codec: every task the
// full internal/apps suite emits — all element types, sharded stores,
// wavefront metadata, fused kernels — must survive EncodeTask/DecodeTask
// bit-identically, because the distributed runtime's determinism contract
// (ranks=N reproduces Shards=N exactly) rests on every rank decoding the
// same stream the parent encoded. The test is external (package ir_test)
// so it can drive the real library stack on top of the ir package.

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/wire"
)

// captureTasks runs two iterations of each workload build returns on a
// sharded wavefront runtime and returns every emitted task.
func captureTasks(t *testing.T, shards int, build func(ctx *cunum.Context) []func(int)) []*ir.Task {
	t.Helper()
	cfg := core.DefaultConfig(4)
	cfg.Shards = shards
	rt := core.New(cfg)
	ctx := cunum.NewContext(rt)

	var tasks []*ir.Task
	rt.Legion().Trace = func(tk *ir.Task) { tasks = append(tasks, tk) }
	for _, it := range build(ctx) {
		it(2)
		ctx.Flush()
	}
	rt.Legion().DrainShardGroup()
	if len(tasks) == 0 {
		t.Fatal("workloads emitted no tasks")
	}
	return tasks
}

// suiteIterates is every workload of the apps suite.
func suiteIterates(ctx *cunum.Context) []func(int) {
	iterates := []func(int){
		apps.NewBlackScholes(ctx, 512).Iterate,
		apps.NewJacobiTotal(ctx, 64).Iterate,
		apps.NewCFD(ctx, 18, 18).Iterate,
		apps.NewSWE(ctx, 18, 18, false).Iterate,
		apps.NewJacobiMRHS(ctx, 64, 3, cunum.F64).Iterate,
		apps.NewJacobiMRHS(ctx, 64, 3, cunum.F32).Iterate,
		apps.NewStencilChain(ctx, 256, 16, 4, apps.ChainUpwind, cunum.F64).Iterate,
		apps.NewStencilChain(ctx, 256, 16, 4, apps.ChainSymmetric, cunum.F32).Iterate,
	}
	{
		A := apps.BuildPoisson2D(ctx, 12)
		b := ctx.Ones(A.Rows())
		iterates = append(iterates, apps.NewCG(ctx, A, b, false).Iterate)
		iterates = append(iterates, apps.NewBiCGSTAB(ctx, A, b).Iterate)
	}
	{
		n := 16
		b := ctx.Ones(n * n)
		iterates = append(iterates, apps.NewGMG(ctx, n, 2, b).Iterate)
	}
	return iterates
}

// TestTaskWireRoundTripAppsSuite: the full apps task stream round-trips
// through the codec — decoded tasks match field for field, and re-encoding
// a decoded task reproduces the producer's bytes exactly.
func TestTaskWireRoundTripAppsSuite(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tasks := captureTasks(t, shards, suiteIterates)
			t.Logf("captured %d tasks", len(tasks))

			// The same lazy tables the dist parent and ranks keep: kernels
			// interned by ref (through the kernel body codec), stores
			// resolved by id.
			kernelRefs := map[*kir.Kernel]int64{}
			decodedKernels := map[int64]*kir.Kernel{}
			stores := map[ir.StoreID]*ir.Store{}

			for ti, orig := range tasks {
				ref := int64(-1)
				if orig.Kernel != nil {
					var ok bool
					if ref, ok = kernelRefs[orig.Kernel]; !ok {
						ref = int64(len(kernelRefs))
						kernelRefs[orig.Kernel] = ref
						dk, err := kir.DecodeKernel(kir.EncodeKernel(orig.Kernel))
						if err != nil {
							t.Fatalf("task %d (%s): kernel round-trip: %v", ti, orig.Name, err)
						}
						if got, want := dk.Fingerprint(), orig.Kernel.Fingerprint(); got != want {
							t.Fatalf("task %d (%s): decoded kernel fingerprint %q, want %q", ti, orig.Name, got, want)
						}
						decodedKernels[ref] = dk
					}
				}
				for _, a := range orig.Args {
					stores[a.Store.ID()] = a.Store
				}

				enc, err := ir.EncodeTask(orig, ref)
				if err != nil {
					t.Fatalf("task %d (%s): encode: %v", ti, orig.Name, err)
				}
				dec, err := ir.DecodeTask(enc,
					func(id ir.StoreID) (*ir.Store, error) {
						s, ok := stores[id]
						if !ok {
							return nil, fmt.Errorf("unknown store %d", id)
						}
						return s, nil
					},
					func(r int64, fp string) (*kir.Kernel, error) {
						k, ok := decodedKernels[r]
						if !ok {
							return nil, fmt.Errorf("unknown kernel ref %d", r)
						}
						if k.Fingerprint() != fp {
							return nil, fmt.Errorf("kernel ref %d fingerprint mismatch", r)
						}
						return k, nil
					})
				if err != nil {
					t.Fatalf("task %d (%s): decode: %v", ti, orig.Name, err)
				}

				if dec.Name != orig.Name || dec.Seq != orig.Seq || dec.FusedFrom != orig.FusedFrom {
					t.Fatalf("task %d: header mismatch: got (%s, %d, %d), want (%s, %d, %d)",
						ti, dec.Name, dec.Seq, dec.FusedFrom, orig.Name, orig.Seq, orig.FusedFrom)
				}
				if len(dec.Args) != len(orig.Args) {
					t.Fatalf("task %d (%s): %d args, want %d", ti, orig.Name, len(dec.Args), len(orig.Args))
				}
				for i := range orig.Args {
					oa, da := &orig.Args[i], &dec.Args[i]
					if da.Store.ID() != oa.Store.ID() || da.Priv != oa.Priv || da.Red != oa.Red ||
						da.HaloBytes != oa.HaloBytes || da.ShardGen != oa.ShardGen {
						t.Fatalf("task %d (%s) arg %d: decoded %+v, want %+v", ti, orig.Name, i, da, oa)
					}
				}

				// Re-encoding the decoded task must reproduce the original
				// bytes — the bit-identity property the rank side relies on.
				// Payloads never decode, so their presence flag (byte 2) is
				// the one legitimate difference.
				reenc, err := ir.EncodeTask(dec, ref)
				if err != nil {
					t.Fatalf("task %d (%s): re-encode: %v", ti, orig.Name, err)
				}
				norm := append([]byte(nil), enc...)
				norm[2] = reenc[2]
				if !bytes.Equal(norm, reenc) {
					t.Fatalf("task %d (%s): re-encoded bytes differ from original encoding", ti, orig.Name)
				}
			}
		})
	}
}

// TestTaskWireVersionMismatch: a stream stamped with a different codec
// version is rejected up front, not misparsed.
func TestTaskWireVersionMismatch(t *testing.T) {
	f := &ir.Factory{}
	s := f.NewStore("x", []int{8})
	task := &ir.Task{
		Name:   "t",
		Launch: ir.MakeRect(ir.Point{0}, ir.Point{1}),
		Args:   []ir.Arg{{Store: s, Part: ir.ReplicateOver(ir.MakeRect(ir.Point{0}, ir.Point{1})), Priv: ir.ReadWrite}},
	}
	enc, err := ir.EncodeTask(task, -1)
	if err != nil {
		t.Fatal(err)
	}
	enc[0], enc[1] = 0xFF, 0xFF // clobber the little-endian version word
	_, err = ir.DecodeTask(enc,
		func(ir.StoreID) (*ir.Store, error) { return s, nil },
		func(int64, string) (*kir.Kernel, error) { return nil, nil })
	if err == nil {
		t.Fatal("decode accepted a wire version it does not speak")
	}
	if want := "version"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention the wire version", err)
	}
}

// streamRecords encodes a task stream the way the dist parent does — each
// kernel once, at its first reference, then the task — as records of
// kind byte ('K' kernel, 'T' task), kernel ref, and the encoded bytes.
func streamRecords(t *testing.T, tasks []*ir.Task) []byte {
	t.Helper()
	var w wire.Writer
	refs := map[*kir.Kernel]int64{}
	for _, tk := range tasks {
		ref := int64(-1)
		if tk.Kernel != nil {
			var ok bool
			if ref, ok = refs[tk.Kernel]; !ok {
				ref = int64(len(refs))
				refs[tk.Kernel] = ref
				w.U8('K')
				w.I64(ref)
				w.Str(string(kir.EncodeKernel(tk.Kernel)))
			}
		}
		enc, err := ir.EncodeTask(tk, ref)
		if err != nil {
			t.Fatalf("task %s: encode: %v", tk.Name, err)
		}
		w.U8('T')
		w.I64(ref)
		w.Str(string(enc))
	}
	return w.Bytes()
}

// TestWireGoldenStencilChain: the task and kernel codecs encode the
// Stencil-Chain stream at shards=4 to exactly the committed bytes, and
// every committed record decodes and re-encodes to itself — the wire
// formats (WireVersion and KernelWireVersion 1) have not drifted.
func TestWireGoldenStencilChain(t *testing.T) {
	golden, err := os.ReadFile("testdata/wire/stencil_chain_shards4.bin")
	if err != nil {
		t.Fatal(err)
	}
	if ir.WireVersion != 1 || kir.KernelWireVersion != 1 {
		t.Fatalf("wire versions %d/%d, want 1/1", ir.WireVersion, kir.KernelWireVersion)
	}
	tasks := captureTasks(t, 4, func(ctx *cunum.Context) []func(int) {
		return []func(int){apps.NewStencilChain(ctx, 256, 16, 4, apps.ChainUpwind, cunum.F64).Iterate}
	})
	if got := streamRecords(t, tasks); !bytes.Equal(got, golden) {
		t.Fatalf("stream encodes to %d bytes that differ from the %d golden bytes", len(got), len(golden))
	}

	kernels := map[int64]*kir.Kernel{}
	stores := func(id ir.StoreID) (*ir.Store, error) { return ir.RestoreStore(id, "", nil, ir.F64), nil }
	resolve := func(ref int64, fp string) (*kir.Kernel, error) {
		k, ok := kernels[ref]
		if !ok || k.Fingerprint() != fp {
			return nil, fmt.Errorf("kernel ref %d unknown or fingerprint mismatch", ref)
		}
		return k, nil
	}
	r := wire.NewReader(golden)
	for n := 0; r.Remaining() > 0; n++ {
		kind, ref, rec := r.U8(), r.I64(), []byte(r.Str())
		if err := r.Err(); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		var reenc []byte
		switch kind {
		case 'K':
			k, err := kir.DecodeKernel(rec)
			if err != nil {
				t.Fatalf("record %d: decode kernel: %v", n, err)
			}
			kernels[ref] = k
			reenc = kir.EncodeKernel(k)
		case 'T':
			tk, err := ir.DecodeTask(rec, stores, resolve)
			if err != nil {
				t.Fatalf("record %d: decode task: %v", n, err)
			}
			if reenc, err = ir.EncodeTask(tk, ref); err != nil {
				t.Fatalf("record %d: re-encode task: %v", n, err)
			}
		default:
			t.Fatalf("record %d: unknown kind %q", n, kind)
		}
		if !bytes.Equal(reenc, rec) {
			t.Fatalf("record %d (%c): decoded value re-encodes to different bytes", n, kind)
		}
	}
}
