// Package dist is the multi-process distributed runtime: a parent process
// launches one rank subprocess per shard (the same binary, re-entered
// through MaybeRankMain) and control-replicates its post-fusion task
// stream to every rank over unix-domain or TCP sockets. Each rank decodes
// the identical stream, re-derives the identical sharded schedule through
// the unchanged legion layer, executes the shard it owns, and exchanges
// boundary spans with its peers (legion/dist.go). The parent owns no
// array data: host reads gather from rank 0, host writes broadcast.
//
// The package has five parts:
//
//   - proto.go (this file): the framed message protocol shared by the
//     parent control stream and the rank-to-rank peer links, and the
//     control-message bodies (encoded with internal/wire, the codec of
//     every byte past the frame header);
//   - parent.go: process launch, child reaping, and the
//     legion.RemoteBackend that forwards the parent's execution surface;
//   - rank.go: the rank process entry point and its control loop;
//   - provider.go: the unix and tcp address, listen and dial providers;
//   - transport.go: the peer mesh and its tagged mailboxes — the
//     legion.HaloTransport the distributed drain moves bytes through.
package dist

import (
	"encoding/binary"
	"fmt"
	"io"

	"diffuse/internal/ir"
	"diffuse/internal/wire"
)

// Environment variables of the rank re-entry protocol. The parent sets
// all three; MaybeRankMain triggers on DIFFUSE_RANK.
const (
	// EnvRank is this process's rank id (unset in the parent).
	EnvRank = "DIFFUSE_RANK"
	// EnvRanks is the total rank count.
	EnvRanks = "DIFFUSE_RANKS"
	// EnvPeers is the parent-assigned rendezvous address set: the
	// parent's control address first, then one peer listen address per
	// rank, comma-separated (AddrSet.Render). For unix the addresses are
	// socket paths in a private directory; for tcp they are host:port
	// endpoints.
	EnvPeers = "DIFFUSE_PEERS"
	// EnvTransport selects the dial/listen transport ("unix", the
	// default, or "tcp"). The parent sets it explicitly on every rank so
	// the whole launch agrees; see Provider.
	EnvTransport = "DIFFUSE_DIST_TRANSPORT"
	// EnvBind is the host the tcp transport binds and dials (default
	// 127.0.0.1). Setting it to a routable interface lets ranks span
	// machines.
	EnvBind = "DIFFUSE_DIST_BIND"
	// EnvFaults is a fault-injection schedule (faultx.ParseSchedule
	// syntax) each rank wraps around its peer transport — the scripted
	// chaos harness of the fault-injection tests. Unset means no faults.
	EnvFaults = "DIFFUSE_DIST_FAULTS"
	// EnvTimeout optionally overrides the transport receive deadline
	// (a Go duration string, e.g. "2s"; default 60s) — the bound after
	// which a missing peer message surfaces as an error instead of a
	// hang.
	EnvTimeout = "DIFFUSE_DIST_TIMEOUT"
	// EnvCodegen carries the parent's kernel-backend selection to the
	// ranks ("off" disables the codegen tier; anything else, including
	// unset, leaves the default on). Ranks must agree with the parent or
	// a bit-identity comparison against the in-process oracle would mix
	// backends.
	EnvCodegen = "DIFFUSE_CODEGEN"
	// EnvFeedback carries the parent's feedback-directed-scheduling
	// selection to the ranks ("off" disables online cost calibration;
	// anything else leaves the default on). Results are bit-identical
	// either way — this only pins schedule shape for deterministic runs.
	EnvFeedback = "DIFFUSE_FEEDBACK"
)

// Control-stream message types (the tag field of control frames). The
// parent broadcasts every message to every rank in issue order — control
// replication needs each rank to observe the identical sequence — and
// only rank 0 answers read requests, on the reply tag.
const (
	msgHello      uint64 = iota + 1 // rank → parent/peer: 8-byte rank id
	msgStoreNew                     // store id, dtype, name, shape
	msgKernel                       // kernel-table ref, kir wire bytes
	msgTask                         // ir wire bytes (references store/kernel tables)
	msgWriteAll                     // store id, float64 bit patterns
	msgWriteAll32                   // store id, float32 bit patterns
	msgFree                         // store id
	msgDrain                        // (empty) force the shard group to drain
	msgReadAll                      // store id; rank 0 replies float64 bits
	msgReadAll32                    // store id; rank 0 replies float32 bits
	msgReadAt                       // store id, flat offset; rank 0 replies ok + value
	msgShutdown                     // (empty) clean rank exit
	msgReply                        // rank 0 → parent: read payload
)

// maxFrame bounds a frame payload (1 GiB): a corrupt length header fails
// fast instead of attempting an absurd allocation.
const maxFrame = 1 << 30

// writeFrame sends one framed message (see appendFrame) in one write.
func writeFrame(w io.Writer, tag uint64, payload []byte) error {
	buf, err := appendFrame(nil, tag, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// appendFrame appends one framed message to buf and returns the extended
// slice: 8-byte tag, 4-byte payload length, payload, all little-endian.
// Hot send paths keep the returned slice and hand the whole frame to one
// conn.Write, so a steady-state send costs zero allocations and one
// syscall.
func appendFrame(buf []byte, tag uint64, payload []byte) ([]byte, error) {
	if len(payload) > maxFrame {
		return buf, fmt.Errorf("dist: frame payload %d bytes exceeds limit", len(payload))
	}
	buf = binary.LittleEndian.AppendUint64(buf, tag)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...), nil
}

// readFrame receives one framed message.
func readFrame(r io.Reader) (tag uint64, payload []byte, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	tag = binary.LittleEndian.Uint64(hdr[0:])
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame payload %d bytes exceeds limit", n)
	}
	if n > 0 {
		payload = make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
	}
	return tag, payload, nil
}

// Body codecs of the control messages. Everything interesting (tasks,
// kernels) travels in the versioned ir/kir wire formats; control bodies
// are fixed layouts in the internal/wire field encoding.

// encodeI64 is the body of every message that carries one integer: a
// hello's rank id, a store id.
func encodeI64(v int64) []byte {
	var w wire.Writer
	w.I64(v)
	return w.Bytes()
}

func encodeStoreNew(s *ir.Store) []byte {
	var w wire.Writer
	w.I64(int64(s.ID()))
	w.U8(uint8(s.DType()))
	w.Str(s.Name())
	w.Ints(s.Shape())
	return w.Bytes()
}

func decodeStoreNew(b []byte) (*ir.Store, error) {
	r := wire.NewReader(b)
	id := ir.StoreID(r.I64())
	dt := ir.DType(r.U8())
	name := r.Str()
	shape := r.Ints()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("dist: StoreNew body: %w", err)
	}
	return ir.RestoreStore(id, name, shape, dt), nil
}

// encodeWriteAll is a WriteAll body: store id, then float64 bit patterns
// to the end of the body.
func encodeWriteAll(id ir.StoreID, data []float64) []byte {
	w := wire.NewWriter(make([]byte, 0, 8+8*len(data)))
	w.I64(int64(id))
	w.F64s(data)
	return w.Bytes()
}

func decodeWriteAll(b []byte) (ir.StoreID, []float64, error) {
	r := wire.NewReader(b)
	id := ir.StoreID(r.I64())
	data := r.F64s()
	return id, data, r.End()
}

// encodeWriteAll32 is a WriteAll32 body: store id, then float32 bit
// patterns to the end of the body.
func encodeWriteAll32(id ir.StoreID, data []float32) []byte {
	w := wire.NewWriter(make([]byte, 0, 8+4*len(data)))
	w.I64(int64(id))
	w.F32s(data)
	return w.Bytes()
}

func decodeWriteAll32(b []byte) (ir.StoreID, []float32, error) {
	r := wire.NewReader(b)
	id := ir.StoreID(r.I64())
	data := r.F32s()
	return id, data, r.End()
}

// encodeReadAtReply is rank 0's answer to a ReadAt: the ok flag, then the
// value's bit pattern.
func encodeReadAtReply(v float64, ok bool) []byte {
	var w wire.Writer
	w.Bool(ok)
	w.F64(v)
	return w.Bytes()
}

func decodeReadAtReply(b []byte) (float64, bool, error) {
	r := wire.NewReader(b)
	ok := r.Bool()
	v := r.F64()
	if err := r.End(); err != nil {
		return 0, false, fmt.Errorf("dist: ReadAt reply: %w", err)
	}
	return v, ok, nil
}
