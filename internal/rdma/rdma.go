// Package rdma simulates the CPU-bypass fabric that Ditto assumes between
// the compute pool and the memory pool of a disaggregated-memory (DM)
// cluster.
//
// The paper's protocols are defined entirely in terms of one-sided RDMA
// verbs (READ, WRITE, ATOMIC_CAS, ATOMIC_FAA) against memory-node (MN)
// memory, plus an RPC channel to the MN's weak controller CPU. This package
// provides exactly those primitives on top of the virtual-time kernel in
// internal/sim:
//
//   - every synchronous verb costs one round trip (Config.RTT) plus queueing
//     on the MN RNIC, which is modelled as a message-rate-limited resource —
//     the bottleneck the paper identifies for Ditto itself;
//   - RPCs additionally queue on the MN CPU resource — the bottleneck the
//     paper identifies for CliqueMap and Redis-like designs;
//   - CAS and FAA have exact atomic semantics (only one process runs at any
//     virtual instant, and verbs interleave at event boundaries exactly as
//     concurrent one-sided verbs interleave on real hardware).
//
// Functional behaviour is real (bytes actually move); only time is
// simulated.
package rdma

import (
	"encoding/binary"
	"fmt"

	"ditto/internal/sim"
)

// Config holds the fabric's timing model. The defaults are calibrated so
// that the reproduction exhibits the paper's resource-saturation shapes
// (see docs/ARCHITECTURE.md, "The substrate"): a ~2 µs RTT and an RNIC
// message rate in the tens of millions of messages per second, against MN
// CPU cores that serve roughly half a million RPCs per second each.
type Config struct {
	// RTT is the network round-trip time charged to every synchronous verb.
	RTT int64
	// MsgSvc is the MN RNIC service time per message (1/message-rate).
	MsgSvc int64
	// ByteSvcNs is the additional RNIC service time per payload byte,
	// in nanoseconds (fractional; models link bandwidth).
	ByteSvcNs float64
	// NICUnits is the number of parallel RNIC processing units.
	NICUnits int
	// CPUCores is the number of MN CPU cores available to the controller.
	CPUCores int
	// RPCSvc is the base MN CPU time consumed by one RPC.
	RPCSvc int64
	// RPCByteSvcNs is additional MN CPU time per RPC payload byte.
	RPCByteSvcNs float64
	// FailTimeout is how long a client waits on a failed node before
	// surfacing NodeUnreachableError; 0 means 10×RTT (see fault.go).
	FailTimeout int64
}

// DefaultConfig returns the calibration used throughout the evaluation
// harness.
func DefaultConfig() Config {
	return Config{
		RTT:          2 * sim.Microsecond,
		MsgSvc:       25,   // 40 M messages/s aggregate
		ByteSvcNs:    0.02, // small-message regime: message rate, not bandwidth, binds
		NICUnits:     1,
		CPUCores:     1, // the paper uses 1 core to model weak MN compute
		RPCSvc:       1500,
		RPCByteSvcNs: 0.5,
	}
}

// Stats counts fabric operations, used by tests and by the ablation
// experiments to verify how many verbs each protocol issues.
type Stats struct {
	Reads      int64
	Writes     int64
	CASes      int64
	FAAs       int64
	RPCs       int64
	AsyncOps   int64
	ReadBytes  int64
	WriteBytes int64

	// DoorbellBatches counts PostBatch calls; BatchedVerbs counts the
	// verbs they carried (those verbs are also counted in their per-kind
	// counters above).
	DoorbellBatches int64
	BatchedVerbs    int64
}

// Total returns the total number of verbs (including RPCs).
func (s *Stats) Total() int64 {
	return s.Reads + s.Writes + s.CASes + s.FAAs + s.RPCs
}

// Handler serves an RPC opcode on the memory node's controller.
type Handler func(payload []byte) []byte

// Node is a memory node: registered memory, an RNIC, and a weak controller
// CPU that serves RPCs. All state is safe to access from any sim process
// because only one process runs at a time.
type Node struct {
	env      *sim.Env
	mem      []byte
	nic      *sim.Resource
	cpu      *sim.Resource
	handlers map[uint8]Handler
	cfg      Config
	down     bool // fail-stop: set by Fail, cleared by Restart (fault.go)

	// Name optionally labels the node in NodeUnreachableError messages.
	Name string

	// Stats accumulates verb counts across all endpoints.
	Stats Stats
}

// NewNode creates a memory node with size bytes of registered memory.
func NewNode(env *sim.Env, size int, cfg Config) *Node {
	if cfg.NICUnits < 1 {
		cfg.NICUnits = 1
	}
	if cfg.CPUCores < 1 {
		cfg.CPUCores = 1
	}
	return &Node{
		env:      env,
		mem:      make([]byte, size),
		nic:      sim.NewResource(env, cfg.NICUnits),
		cpu:      sim.NewResource(env, cfg.CPUCores),
		handlers: make(map[uint8]Handler),
		cfg:      cfg,
	}
}

// Env returns the node's simulation environment.
func (n *Node) Env() *sim.Env { return n.env }

// Config returns the node's timing configuration.
func (n *Node) Config() Config { return n.cfg }

// MemSize returns the size of the registered region in bytes.
func (n *Node) MemSize() int { return len(n.mem) }

// CPU exposes the controller CPU resource so experiments can scale MN cores
// (Figure 15) or inspect utilization.
func (n *Node) CPU() *sim.Resource { return n.cpu }

// NIC exposes the RNIC resource for utilization inspection.
func (n *Node) NIC() *sim.Resource { return n.nic }

// Handle registers an RPC handler for an opcode. Registering the same
// opcode twice panics: opcodes are a static protocol.
func (n *Node) Handle(op uint8, h Handler) {
	if _, dup := n.handlers[op]; dup {
		//dittolint:allow typederr (protocol-misuse guard: opcodes are a static protocol, registered at startup)
		panic(fmt.Sprintf("rdma: duplicate RPC opcode %d", op))
	}
	n.handlers[op] = h
}

func (n *Node) check(addr uint64, length int) {
	if length < 0 || addr+uint64(length) > uint64(len(n.mem)) {
		//dittolint:allow typederr (memory-safety guard: an out-of-region verb is a client bug, the simulated NIC's local protection fault)
		panic(fmt.Sprintf("rdma: access [%d,+%d) outside region of %d bytes",
			addr, length, len(n.mem)))
	}
}

func (n *Node) msgSvc(bytes int) int64 {
	return n.cfg.MsgSvc + int64(n.cfg.ByteSvcNs*float64(bytes))
}

// Endpoint is a client-side queue pair bound to one sim process. Verbs
// advance that process's virtual time.
type Endpoint struct {
	node *Node
	p    *sim.Proc
}

// NewEndpoint connects process p to the node.
func NewEndpoint(node *Node, p *sim.Proc) *Endpoint {
	return &Endpoint{node: node, p: p}
}

// Proc returns the owning process.
func (e *Endpoint) Proc() *sim.Proc { return e.p }

// Node returns the remote node.
func (e *Endpoint) Node() *Node { return e.node }

// Read performs a one-sided RDMA_READ of length bytes at addr and returns a
// copy of the data as observed at completion time.
func (e *Endpoint) Read(addr uint64, length int) []byte {
	return e.doSync(BatchOp{Kind: BatchRead, Addr: addr, Len: length}).Data
}

// ReadInto is Read delivering into buf when buf has capacity for length
// bytes (the returned slice then aliases buf); otherwise it allocates as
// Read does. Same cost model and completion semantics as Read.
func (e *Endpoint) ReadInto(addr uint64, length int, buf []byte) []byte {
	return e.doSync(BatchOp{Kind: BatchRead, Addr: addr, Len: length, Buf: buf}).Data
}

// Write performs a one-sided RDMA_WRITE and waits for completion.
func (e *Endpoint) Write(addr uint64, data []byte) {
	e.doSync(BatchOp{Kind: BatchWrite, Addr: addr, Data: data})
}

// WriteAsync posts an RDMA_WRITE without waiting for its completion (the
// paper uses unsignalled writes for metadata off the critical path). The
// message still consumes RNIC capacity; the data is applied immediately,
// which is a benign simplification for metadata that only this client
// updates in the window.
func (e *Endpoint) WriteAsync(addr uint64, data []byte) {
	e.doAsync(BatchOp{Kind: BatchWrite, Addr: addr, Data: data})
}

// CAS atomically compares-and-swaps the 8-byte word at addr. It returns the
// value observed before the operation and whether the swap happened.
func (e *Endpoint) CAS(addr uint64, expect, swap uint64) (old uint64, swapped bool) {
	res := e.doSync(BatchOp{Kind: BatchCAS, Addr: addr, Expect: expect, Swap: swap})
	return res.Old, res.Swapped
}

// FAA atomically fetches-and-adds delta to the 8-byte word at addr,
// returning the previous value.
func (e *Endpoint) FAA(addr uint64, delta uint64) uint64 {
	return e.doSync(BatchOp{Kind: BatchFAA, Addr: addr, Delta: delta}).Old
}

// FAAAsync posts a fetch-and-add without waiting (used by the FC cache when
// flushing combined frequency updates off the critical path).
func (e *Endpoint) FAAAsync(addr uint64, delta uint64) {
	e.doAsync(BatchOp{Kind: BatchFAA, Addr: addr, Delta: delta})
}

// doSync issues one verb, blocks for queueing plus one RTT, and applies
// its effect at completion time — the single-verb degenerate case of the
// shared issue/apply machinery below.
func (e *Endpoint) doSync(op BatchOp) BatchResult {
	n := e.node
	if n.down {
		n.unreachable(e.p)
	}
	end := n.issueOp(&op)
	e.p.SleepUntil(end + n.cfg.RTT)
	if n.down {
		// Failed mid-flight: the completion never arrives, the effect
		// never applies.
		n.unreachable(e.p)
	}
	var res BatchResult
	n.applyOp(&op, &res)
	return res
}

// doAsync issues one verb without waiting for its completion. The message
// consumes RNIC capacity exactly as a batched or synchronous verb would
// (same issueOp/applyOp machinery, same stat accounting); only the
// completion wait is skipped.
func (e *Endpoint) doAsync(op BatchOp) {
	n := e.node
	if n.down {
		// Even an unsignalled post is detected eventually; model it as
		// detected at post time so async metadata paths fail loudly.
		n.unreachable(e.p)
	}
	n.Stats.AsyncOps++
	n.issueOp(&op)
	var res BatchResult
	n.applyOp(&op, &res)
}

// BatchKind selects the verb of one entry in a doorbell batch.
type BatchKind uint8

// Verbs a doorbell batch may carry.
const (
	BatchRead BatchKind = iota
	BatchWrite
	BatchCAS
	BatchFAA
)

// BatchOp describes one verb in a doorbell batch. Fields beyond Kind and
// Addr are per-kind: Len for reads, Data for writes, Expect/Swap for CAS,
// Delta for FAA.
type BatchOp struct {
	Kind   BatchKind
	Addr   uint64
	Len    int    // BatchRead: bytes to fetch
	Data   []byte // BatchWrite: payload
	Expect uint64 // BatchCAS: compare value
	Swap   uint64 // BatchCAS: swap value
	Delta  uint64 // BatchFAA: addend

	// Buf, when it has capacity for Len bytes, receives a BatchRead's
	// data in place of a fresh allocation (BatchResult.Data then aliases
	// it). Pooled verb plans pass their own scratch here; leaving Buf nil
	// preserves the classic allocate-per-read behaviour.
	Buf []byte
}

// BatchResult is the completion of one BatchOp.
type BatchResult struct {
	Data    []byte // BatchRead: the fetched bytes
	Old     uint64 // BatchCAS / BatchFAA: value observed before the op
	Swapped bool   // BatchCAS: whether the swap took effect
}

// issueOp validates one verb, records its stats, and acquires its RNIC
// message service, returning the completion time. Every verb path —
// synchronous singles, asynchronous (unsignalled) singles, and doorbell
// batches — goes through this one function, so they all share one cost
// model and one stat-accounting convention.
func (n *Node) issueOp(op *BatchOp) int64 {
	var bytes int
	switch op.Kind {
	case BatchRead:
		n.check(op.Addr, op.Len)
		n.Stats.Reads++
		n.Stats.ReadBytes += int64(op.Len)
		bytes = op.Len
	case BatchWrite:
		n.check(op.Addr, len(op.Data))
		n.Stats.Writes++
		n.Stats.WriteBytes += int64(len(op.Data))
		bytes = len(op.Data)
	case BatchCAS:
		n.check(op.Addr, 8)
		n.Stats.CASes++
		bytes = 8
	case BatchFAA:
		n.check(op.Addr, 8)
		n.Stats.FAAs++
		bytes = 8
	default:
		//dittolint:allow typederr (protocol-misuse guard: BatchOp kinds are a closed enum)
		panic(fmt.Sprintf("rdma: unknown batch op kind %d", op.Kind))
	}
	return n.nic.Acquire(n.msgSvc(bytes))
}

// applyOp performs one issued verb's effect and fills its completion.
// Effects take hold when this runs — at completion time for synchronous
// and batched verbs (the caller slept first), immediately for
// asynchronous ones.
func (n *Node) applyOp(op *BatchOp, res *BatchResult) {
	switch op.Kind {
	case BatchRead:
		out := op.Buf
		if cap(out) < op.Len {
			out = make([]byte, op.Len)
		} else {
			out = out[:op.Len]
		}
		copy(out, n.mem[op.Addr:op.Addr+uint64(op.Len)])
		res.Data = out
	case BatchWrite:
		copy(n.mem[op.Addr:op.Addr+uint64(len(op.Data))], op.Data)
	case BatchCAS:
		old := binary.LittleEndian.Uint64(n.mem[op.Addr:])
		res.Old = old
		if old == op.Expect {
			binary.LittleEndian.PutUint64(n.mem[op.Addr:], op.Swap)
			res.Swapped = true
		}
	case BatchFAA:
		old := binary.LittleEndian.Uint64(n.mem[op.Addr:])
		res.Old = old
		binary.LittleEndian.PutUint64(n.mem[op.Addr:], old+op.Delta)
	}
}

// PostBatch posts N verbs with ONE RNIC doorbell and waits for all of
// their completions. This is the doorbell-batching cost model: every verb
// still consumes RNIC capacity (the message rate binds exactly as for
// individual verbs), but the round trips overlap — the caller blocks
// until the LAST completion plus one RTT instead of paying queueing plus
// an RTT per verb. All effects take hold at completion time in posting
// order, matching in-order execution on one queue pair: a read posted
// after a write in the same batch observes that write.
func (e *Endpoint) PostBatch(ops []BatchOp) []BatchResult {
	if len(ops) == 0 {
		return nil
	}
	n := e.node
	if n.down {
		n.unreachable(e.p)
	}
	n.Stats.DoorbellBatches++
	n.Stats.BatchedVerbs += int64(len(ops))
	var last int64
	for i := range ops {
		if end := n.issueOp(&ops[i]); end > last {
			last = end
		}
	}
	e.p.SleepUntil(last + n.cfg.RTT)
	if n.down {
		// Atomic batch failure: the node died before completion, so NONE
		// of the batch's effects apply.
		n.unreachable(e.p)
	}
	res := make([]BatchResult, len(ops))
	for i := range ops {
		n.applyOp(&ops[i], &res[i])
	}
	return res
}

// EndpointBatch is one endpoint's share of a multi-endpoint doorbell
// round: the ops to post on that endpoint's queue pair.
type EndpointBatch struct {
	EP  *Endpoint
	Ops []BatchOp

	// Res receives the completions when the round is posted with
	// PostMultiInPlace: resized (reusing capacity) to len(Ops), or set
	// nil for a batch whose node was down. PostMulti ignores it.
	Res []BatchResult
}

// PostMulti posts one doorbell batch per entry and overlaps the round
// trips ACROSS endpoints as well as within each batch: queue pairs to
// different nodes are independent, so all verbs are issued up front and
// the caller sleeps once, until the latest completion (per-node RTTs may
// differ). Effects apply in posting order, batches in entry order. Every
// endpoint must belong to the same process — the caller's.
func PostMulti(batches []EndpointBatch) [][]BatchResult {
	out := make([][]BatchResult, len(batches))
	postMulti(batches, out)
	return out
}

// PostMultiInPlace is PostMulti writing completions into each entry's Res
// slice (reusing its capacity) instead of allocating a fresh result set —
// the form the pooled doorbell runner uses so a steady-state round
// allocates nothing. Timing, ordering, and failure semantics are
// identical to PostMulti.
func PostMultiInPlace(batches []EndpointBatch) {
	postMulti(batches, nil)
}

// postMulti issues, sleeps, and applies one multi-endpoint round. When
// out is non-nil the bi-th batch's completions go to freshly allocated
// out[bi]; otherwise they go to batches[bi].Res, resized in place.
func postMulti(batches []EndpointBatch, out [][]BatchResult) {
	var p *sim.Proc
	var last int64
	var downNode *Node
	for _, b := range batches {
		if len(b.Ops) == 0 {
			continue
		}
		n := b.EP.node
		if p == nil {
			p = b.EP.p
		} else if p != b.EP.p {
			//dittolint:allow typederr (API-misuse guard: a doorbell round belongs to one process)
			panic("rdma: PostMulti endpoints span processes")
		}
		if n.down {
			// Dead queue pair: nothing issues; the whole round fails
			// after the live batches complete (real QPs are independent).
			downNode = n
			continue
		}
		n.Stats.DoorbellBatches++
		n.Stats.BatchedVerbs += int64(len(b.Ops))
		for i := range b.Ops {
			if end := n.issueOp(&b.Ops[i]) + n.cfg.RTT; end > last {
				last = end
			}
		}
	}
	if p == nil {
		return
	}
	p.SleepUntil(last)
	for bi := range batches {
		b := &batches[bi]
		n := b.EP.node
		if n.down {
			// Down at post time or failed mid-flight: none of this
			// batch's effects apply. Live siblings still complete —
			// callers must treat a failed fan-out as partially applied.
			downNode = n
			if out != nil {
				out[bi] = nil
			} else {
				b.Res = nil
			}
			continue
		}
		var res []BatchResult
		if out != nil {
			res = make([]BatchResult, len(b.Ops))
			out[bi] = res
		} else {
			if cap(b.Res) < len(b.Ops) {
				b.Res = make([]BatchResult, len(b.Ops))
			} else {
				b.Res = b.Res[:len(b.Ops)]
			}
			res = b.Res
			for i := range res {
				res[i] = BatchResult{}
			}
		}
		for i := range b.Ops {
			n.applyOp(&b.Ops[i], &res[i])
		}
	}
	if downNode != nil {
		downNode.unreachable(p)
	}
}

// RPC sends a request to the MN controller and returns its reply. The
// request consumes two NIC messages (request + reply) and queues on the MN
// CPU, which is the scarce resource the paper's baselines saturate.
func (e *Endpoint) RPC(op uint8, payload []byte) []byte {
	return e.PostRPC(op, payload).Wait()
}

// PendingRPC is a request PostRPC sent whose reply nobody has waited for.
type PendingRPC struct {
	e     *Endpoint
	reply []byte
	ready int64
}

// PostRPC sends a request as RPC does — same messages, same place in the
// MN CPU's queue — and returns without waiting: the caller collects the
// reply with Wait, and whatever it does in between overlaps the round
// trip. A request posted ahead of need costs its issuer nothing but the
// controller's time.
func (e *Endpoint) PostRPC(op uint8, payload []byte) PendingRPC {
	n := e.node
	h, ok := n.handlers[op]
	if !ok {
		//dittolint:allow typederr (protocol-misuse guard: opcodes are a static protocol)
		panic(fmt.Sprintf("rdma: no handler for RPC opcode %d", op))
	}
	if n.down {
		n.unreachable(e.p)
	}
	n.Stats.RPCs++
	n.nic.Acquire(n.msgSvc(len(payload)))
	svc := n.cfg.RPCSvc + int64(n.cfg.RPCByteSvcNs*float64(len(payload)))
	end := n.cpu.Acquire(svc)
	reply := h(payload)
	n.nic.Acquire(n.msgSvc(len(reply)))
	return PendingRPC{e: e, reply: reply, ready: end + n.cfg.RTT}
}

// Wait blocks until the reply has arrived — not at all when it already
// has — and returns it.
func (r PendingRPC) Wait() []byte {
	n := r.e.node
	if r.ready > r.e.p.Now() {
		r.e.p.SleepUntil(r.ready)
	}
	if n.down {
		// The controller died before the reply arrived. The handler may
		// have executed — classic RPC ambiguity — but the node's state
		// is lost with it, so callers just see the timeout.
		n.unreachable(r.e.p)
	}
	return r.reply
}

// Mem returns direct access to the registered region. It exists for
// server-side components that legitimately live on the node (the
// controller, or the monolithic-server baselines) and for tests; client
// protocols must never touch it.
func (n *Node) Mem() []byte { return n.mem }

// Uint64At reads an 8-byte little-endian word server-side (no cost).
func (n *Node) Uint64At(addr uint64) uint64 {
	n.check(addr, 8)
	return binary.LittleEndian.Uint64(n.mem[addr:])
}

// PutUint64At writes an 8-byte little-endian word server-side (no cost).
func (n *Node) PutUint64At(addr uint64, v uint64) {
	n.check(addr, 8)
	binary.LittleEndian.PutUint64(n.mem[addr:], v)
}
