// Package memnode implements the memory-pool side of Ditto: the memory
// node's address-space layout, the two-level memory management scheme
// (segment allocation served by the weak MN controller, block carving done
// client-side), and the registry of controller RPC opcodes shared by every
// protocol in this repository.
//
// Layout of the registered region:
//
//	[0,   8)          global history counter (48-bit circular, RDMA_FAA'd)
//	[8,   56)         reserved words (the DisableLWH ablation's
//	                  conventional history queue is modelled here)
//	[56,  headerEnd)  supply epoch (SupplyEpochAddr)
//	[headerEnd, T)    sample-friendly hash table (placed by PlaceTable)
//	[T,   end)        object heap, carved into segments
//
// The controller owns the segment free list; clients obtain segments over
// RPC (infrequent — the second level) and carve 64-byte-granularity blocks
// from them locally (the common case — zero network cost), exactly as the
// two-level scheme of FUSEE that the paper adopts (§5.1 Implementations).
//
// A client the controller refused stays off the weak MN CPU until memory
// can have appeared. The supply epoch is one word of two counters: the
// controller bumps the high half whenever a segment becomes grantable (a
// raised heap limit, a freed segment) and the low half whenever pooled
// blocks do (a surrendered free list); a refusal carries the word it was
// made at, and the dry allocator's periodic probe is a one-sided 8-byte
// READ of it. A level — the segments, or the pool's list of one size
// class — is asked again only once its half has moved, so a full cache in
// steady state issues no allocator RPC, and a writer fed by the pool
// (behind the background reclaimer) none for segments; the pool requests
// that writer does need it posts a grant ahead (PrefetchGrant), so their
// round trip overlaps its other work.
package memnode

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ditto/internal/rdma"
	"ditto/internal/sim"
)

// Controller RPC opcodes. All protocols in this repository register their
// handlers out of this space so a single memory node can host any mix.
const (
	OpAllocSeg uint8 = iota + 1
	OpFreeSeg
	OpWeightUpdate // distributed adaptive caching: lazy weight update
	OpCMSet        // CliqueMap baseline: server-executed Set
	OpCMSync       // CliqueMap baseline: client access-info synchronization
	OpServerOp     // monolithic-server baseline (Redis-like shard op)
	OpFreeBlocks   // surrender a client free list to the controller pool
	OpAllocBlock   // fetch one block from the controller pool
)

// BlockSize is the allocation granularity of the object heap; the paper's
// slot size field counts object sizes in units of 64-byte blocks.
const BlockSize = 64

// DefaultSegmentSize is how much memory one ALLOC RPC hands a client.
const DefaultSegmentSize = 64 * 1024

// headerBytes reserves space for the global history counter and the
// control words at the base of the region.
const headerBytes = 64

// HistCounterAddr is the address of the global history counter.
const HistCounterAddr uint64 = 0

// SupplyEpochAddr is the address of the supply epoch, the header's last
// word: the controller bumps one of its halves whenever grantable memory
// appears (bumpSupply), dry allocators READ it instead of asking (Alloc).
const SupplyEpochAddr uint64 = headerBytes - 8

// The supply epoch's two counters, as bumpSupply units.
const (
	supplyPool uint64 = 1       // low half: pooled blocks appeared
	supplySeg  uint64 = 1 << 32 // high half: a segment became grantable
)

// MemNode wraps an rdma.Node with Ditto's layout and the segment-level
// allocator run by the controller.
type MemNode struct {
	Node *rdma.Node

	segmentSize int
	tableAddr   uint64
	tableBytes  int
	heapAddr    uint64
	heapEnd     uint64
	nextSeg     uint64
	freeSegs    []uint64

	// SegAllocs counts segment allocations served (controller-side metric).
	SegAllocs int64

	// UsedBytes tracks live heap bytes across ALL clients. Free lists are
	// per-client (the evicting client reuses the victim's space, as in the
	// paper), but accounting must be global because any client may evict —
	// and thus free — any other client's allocation.
	UsedBytes int

	// blockPool holds blocks surrendered by departing clients (e.g. the
	// resharder), keyed by size class, so transient clients cannot strand
	// heap space. Served to clients via OpAllocBlock when the segment
	// space is exhausted.
	blockPool map[int][]uint64

	// LowWaterBytes and HighWaterBytes are the free-space watermarks the
	// background reclaimer (core.EnableBackgroundReclaim) runs between:
	// when FreeBytes drops below the low watermark the reclaimer starts
	// evicting, and it keeps going until FreeBytes is back above the high
	// watermark (or until an over-budget heap is drained). Zero values
	// mean "no watermarks": nothing in this package acts on them — they
	// are shared state between the allocator accounting kept here and the
	// reclaimer that polls it.
	LowWaterBytes, HighWaterBytes int

	// Overload signal (core.EnableOverloadControl): write-stall ticks
	// reported by clients via NoteStallTick are bucketed into
	// stallWindowNs-wide virtual-time epochs, and the node counts as
	// overloaded while the current plus previous epoch together exceed
	// stallThreshold ticks — a two-bucket sliding window that needs no
	// per-tick timestamps. stallThreshold == 0 means the signal is off
	// and both NoteStallTick and Overloaded are no-ops.
	stallThreshold int64
	stallWindowNs  int64
	stallEpoch     int64
	stallCur       int64
	stallPrev      int64

	// liveBlocks, when non-nil (EnableFreeTracking), maps every
	// outstanding allocated block to its size class — a precise
	// double-free / double-alloc detector the chaos suite turns on. The
	// UsedBytes>=0 panic in Alloc.Free catches only NET over-freeing;
	// this catches the first bad free, with its address.
	liveBlocks map[uint64]int
}

// Config configures a memory node.
type Config struct {
	// MemBytes is the total registered memory (table + heap + header).
	MemBytes int
	// SegmentSize overrides DefaultSegmentSize when > 0.
	SegmentSize int
	// Fabric is the timing model for the node's NIC/CPU.
	Fabric rdma.Config
}

// New creates a memory node and registers the ALLOC/FREE handlers.
func New(env *sim.Env, cfg Config) *MemNode {
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = DefaultSegmentSize
	}
	if cfg.SegmentSize%BlockSize != 0 {
		panic("memnode: segment size must be a multiple of the block size")
	}
	mn := &MemNode{
		Node:        rdma.NewNode(env, cfg.MemBytes, cfg.Fabric),
		segmentSize: cfg.SegmentSize,
	}
	mn.tableAddr = headerBytes
	mn.heapAddr = headerBytes
	mn.heapEnd = uint64(cfg.MemBytes)
	mn.nextSeg = mn.heapAddr
	mn.blockPool = make(map[int][]uint64)
	mn.Node.Handle(OpAllocSeg, mn.handleAllocSeg)
	mn.Node.Handle(OpFreeSeg, mn.handleFreeSeg)
	mn.Node.Handle(OpFreeBlocks, mn.handleFreeBlocks)
	mn.Node.Handle(OpAllocBlock, mn.handleAllocBlock)
	return mn
}

// PlaceTable reserves bytes for the hash table directly after the header
// and returns its base address. It must be called before any segment is
// allocated.
func (mn *MemNode) PlaceTable(bytes int) uint64 {
	if mn.nextSeg != mn.heapAddr || len(mn.freeSegs) > 0 {
		panic("memnode: PlaceTable after segment allocation")
	}
	if uint64(headerBytes+bytes) > mn.heapEnd {
		panic(fmt.Sprintf("memnode: table of %d bytes does not fit in %d", bytes, mn.heapEnd))
	}
	mn.tableAddr = headerBytes
	mn.tableBytes = bytes
	mn.heapAddr = headerBytes + uint64(bytes)
	// Segments are block-aligned.
	if r := mn.heapAddr % BlockSize; r != 0 {
		mn.heapAddr += BlockSize - r
	}
	mn.nextSeg = mn.heapAddr
	return mn.tableAddr
}

// TableAddr returns the hash table base address.
func (mn *MemNode) TableAddr() uint64 { return mn.tableAddr }

// HeapBytes returns the number of bytes available for cached objects.
func (mn *MemNode) HeapBytes() int { return int(mn.heapEnd - mn.heapAddr) }

// SegmentSize returns the segment granularity.
func (mn *MemNode) SegmentSize() int { return mn.segmentSize }

// GrowHeap extends the heap by bytes (the "add memory" elasticity
// experiments). The underlying region must have been sized generously; in
// simulation we model growth by raising the allocatable limit.
func (mn *MemNode) GrowHeap(bytes int) {
	newEnd := mn.heapEnd + uint64(bytes)
	if newEnd > uint64(mn.Node.MemSize()) {
		panic("memnode: GrowHeap beyond registered region")
	}
	mn.heapEnd = newEnd
	mn.bumpSupply(supplySeg)
}

// bumpSupply advances one counter of the supply epoch: grantable memory
// of that level just appeared. Each half wraps on its own — a reclaimer
// surrendering for days must not carry into the segment counter. The word
// in MN memory is the only copy, so what a refusal reports and what a
// probe READs can never disagree.
func (mn *MemNode) bumpSupply(level uint64) {
	w := mn.Node.Uint64At(SupplyEpochAddr)
	seg, pool := uint32(w>>32), uint32(w)
	if level == supplySeg {
		seg++
	} else {
		pool++
	}
	mn.Node.PutUint64At(SupplyEpochAddr, uint64(seg)<<32|uint64(pool))
}

// ShrinkHeap lowers the allocatable heap end by bytes — the "remove
// memory" elasticity knob, the counterpart of GrowHeap. Segments already
// handed to clients stay usable (the region is only logically released),
// but no new segment is granted beyond the lowered end and OverBudget
// turns true until evictions bring UsedBytes back under the new limit.
func (mn *MemNode) ShrinkHeap(bytes int) {
	if bytes < 0 {
		panic("memnode: ShrinkHeap of negative bytes")
	}
	newEnd := mn.heapEnd - uint64(bytes)
	if newEnd < mn.heapAddr || newEnd > mn.heapEnd {
		newEnd = mn.heapAddr
	}
	mn.heapEnd = newEnd
	// Drop free segments that now lie beyond the heap: they are
	// decommissioned, not reusable.
	kept := mn.freeSegs[:0]
	for _, s := range mn.freeSegs {
		if s+uint64(mn.segmentSize) <= mn.heapEnd {
			kept = append(kept, s)
		}
	}
	mn.freeSegs = kept
}

// OverBudget reports whether live object bytes exceed the heap limit —
// true after a ShrinkHeap until eviction catches up.
func (mn *MemNode) OverBudget() bool { return mn.UsedBytes > mn.HeapBytes() }

// FreeBytes returns the heap bytes not held by live objects. Negative
// while the node is over budget (after a ShrinkHeap).
func (mn *MemNode) FreeBytes() int { return mn.HeapBytes() - mn.UsedBytes }

// SetWatermarks installs the reclaimer's free-space watermarks. low must
// not exceed high; both are clamped to the heap size.
func (mn *MemNode) SetWatermarks(low, high int) {
	if low < 0 || high < low {
		panic("memnode: watermarks need 0 <= low <= high")
	}
	if hb := mn.HeapBytes(); high > hb {
		high = hb
		if low > high {
			low = high
		}
	}
	mn.LowWaterBytes, mn.HighWaterBytes = low, high
}

// BelowLowWater reports whether free space has dipped under the low
// watermark (always false when no watermarks are set) — the reclaimer's
// wake condition. An over-budget heap counts as below any watermark.
// The watermark is clamped to a quarter of the CURRENT heap, so a deep
// ShrinkHeap cannot leave a stale absolute watermark demanding more
// free space than the cache should reasonably hold empty.
func (mn *MemNode) BelowLowWater() bool {
	return (mn.LowWaterBytes > 0 && mn.ReclaimLag() > 0) || mn.OverBudget()
}

// ReclaimLag returns how many bytes free space sits under the (clamped)
// low watermark: how far writers have outrun the reclaimer since its wake
// mark. Negative above it.
func (mn *MemNode) ReclaimLag() int {
	low := mn.LowWaterBytes
	if cap := mn.HeapBytes() / 4; low > cap {
		low = cap
	}
	return low - mn.FreeBytes()
}

// ReclaimTarget returns the effective high watermark: the configured
// value clamped to half the current heap (see BelowLowWater on why the
// clamp exists).
func (mn *MemNode) ReclaimTarget() int {
	high := mn.HighWaterBytes
	if cap := mn.HeapBytes() / 2; high > cap {
		high = cap
	}
	return high
}

// BelowHighWater reports whether free space is still under the high
// watermark — the reclaimer's keep-going condition (hysteresis: wake
// below low, stop above high).
func (mn *MemNode) BelowHighWater() bool {
	high := mn.ReclaimTarget()
	return (high > 0 && mn.FreeBytes() < high) || mn.OverBudget()
}

// DefaultStallWindowNs is the overload signal's default sliding-window
// width: 1 ms of virtual time, a few hundred stall ticks at the write
// path's 2 µs tick.
const DefaultStallWindowNs = int64(sim.Millisecond)

// EnableOverloadSignal arms the write-stall overload signal: more than
// threshold stall ticks within the (two-epoch) sliding window marks the
// node overloaded. threshold <= 0 disables; windowNs <= 0 picks
// DefaultStallWindowNs.
func (mn *MemNode) EnableOverloadSignal(threshold, windowNs int64) {
	if threshold <= 0 {
		mn.stallThreshold, mn.stallWindowNs = 0, 0
		return
	}
	if windowNs <= 0 {
		windowNs = DefaultStallWindowNs
	}
	mn.stallThreshold, mn.stallWindowNs = threshold, windowNs
	mn.stallEpoch, mn.stallCur, mn.stallPrev = 0, 0, 0
}

// rollStallEpoch advances the two-bucket window to the epoch containing
// virtual time now.
func (mn *MemNode) rollStallEpoch(now int64) {
	e := now / mn.stallWindowNs
	switch {
	case e == mn.stallEpoch:
	case e == mn.stallEpoch+1:
		mn.stallPrev, mn.stallCur = mn.stallCur, 0
		mn.stallEpoch = e
	default:
		mn.stallPrev, mn.stallCur = 0, 0
		mn.stallEpoch = e
	}
}

// NoteStallTick records one write-stall tick at virtual time now (a
// no-op while the signal is disarmed).
func (mn *MemNode) NoteStallTick(now int64) {
	if mn.stallThreshold == 0 {
		return
	}
	mn.rollStallEpoch(now)
	mn.stallCur++
}

// Overloaded reports whether the recent write-stall rate exceeds the
// armed threshold (always false while disarmed).
func (mn *MemNode) Overloaded(now int64) bool {
	if mn.stallThreshold == 0 {
		return false
	}
	mn.rollStallEpoch(now)
	return mn.stallCur+mn.stallPrev > mn.stallThreshold
}

// StallTicksInWindow returns the tick count the overload decision reads
// (diagnostics; 0 while disarmed).
func (mn *MemNode) StallTicksInWindow(now int64) int64 {
	if mn.stallThreshold == 0 {
		return 0
	}
	mn.rollStallEpoch(now)
	return mn.stallCur + mn.stallPrev
}

// SetHeapLimit sets the allocatable heap end to heapAddr+bytes, used to
// start an elastic experiment with a small cache and grow it later.
func (mn *MemNode) SetHeapLimit(bytes int) {
	newEnd := mn.heapAddr + uint64(bytes)
	if newEnd > uint64(mn.Node.MemSize()) {
		panic("memnode: heap limit beyond registered region")
	}
	if newEnd > mn.heapEnd {
		mn.bumpSupply(supplySeg)
	}
	mn.heapEnd = newEnd
}

// EnableFreeTracking turns on exact block-lifetime tracking: every
// allocation records its address and class, every free must match one.
// Test-harness only (the map costs real memory per live block).
func (mn *MemNode) EnableFreeTracking() {
	if mn.liveBlocks == nil {
		mn.liveBlocks = make(map[uint64]int)
	}
}

// ResetFreeTracking clears the tracker (call after a node Restart wipes
// the heap: outstanding addresses died with the old incarnation).
func (mn *MemNode) ResetFreeTracking() {
	if mn.liveBlocks != nil {
		mn.liveBlocks = make(map[uint64]int)
	}
}

// LiveTrackedBlocks returns the number of outstanding tracked blocks
// (0 when tracking is off).
func (mn *MemNode) LiveTrackedBlocks() int { return len(mn.liveBlocks) }

// noteAlloc records a block handed to a client.
func (mn *MemNode) noteAlloc(addr uint64, cl int) {
	if mn.liveBlocks == nil {
		return
	}
	if prev, live := mn.liveBlocks[addr]; live {
		panic(fmt.Sprintf("memnode: block %#x (class %d) allocated twice (still live as class %d)", addr, cl, prev))
	}
	mn.liveBlocks[addr] = cl
}

// noteFree checks a block being freed against the live set.
func (mn *MemNode) noteFree(addr uint64, cl int) {
	if mn.liveBlocks == nil {
		return
	}
	prev, live := mn.liveBlocks[addr]
	if !live {
		panic(fmt.Sprintf("memnode: double free of block %#x (class %d)", addr, cl))
	}
	if prev != cl {
		panic(fmt.Sprintf("memnode: block %#x freed as class %d but allocated as class %d", addr, cl, prev))
	}
	delete(mn.liveBlocks, addr)
}

func (mn *MemNode) handleAllocSeg([]byte) []byte {
	reply := make([]byte, 9)
	var addr uint64
	switch {
	case len(mn.freeSegs) > 0:
		addr = mn.freeSegs[len(mn.freeSegs)-1]
		mn.freeSegs = mn.freeSegs[:len(mn.freeSegs)-1]
	case mn.nextSeg+uint64(mn.segmentSize) <= mn.heapEnd:
		addr = mn.nextSeg
		mn.nextSeg += uint64(mn.segmentSize)
	default:
		// Out of memory: the refusal carries the supply epoch it was made
		// at, so the client knows which word value means "still nothing".
		binary.LittleEndian.PutUint64(reply[1:], mn.Node.Uint64At(SupplyEpochAddr))
		return reply
	}
	mn.SegAllocs++
	reply[0] = 1
	binary.LittleEndian.PutUint64(reply[1:], addr)
	return reply
}

func (mn *MemNode) handleFreeSeg(payload []byte) []byte {
	addr := binary.LittleEndian.Uint64(payload)
	mn.freeSegs = append(mn.freeSegs, addr)
	mn.bumpSupply(supplySeg)
	return []byte{1}
}

// handleFreeBlocks receives a departing client's free list for one size
// class: class (8 B) followed by the block addresses.
func (mn *MemNode) handleFreeBlocks(payload []byte) []byte {
	cl := int(binary.LittleEndian.Uint64(payload))
	for off := 8; off+8 <= len(payload); off += 8 {
		mn.blockPool[cl] = append(mn.blockPool[cl], binary.LittleEndian.Uint64(payload[off:]))
	}
	mn.bumpSupply(supplyPool)
	return []byte{1}
}

// poolGrant bounds how many blocks one pool request is granted.
const poolGrant = 8

// handleAllocBlock serves blocks of the requested size class from the
// surrendered pool: a count (1 B) and their addresses. One request takes
// up to poolGrant blocks, so a writer fed by the pool — behind the
// background reclaimer, or after a reshard surrendered a node's worth —
// pays the controller once per grant, not once per block; and never more
// than half of what the class holds (rounded up), so a thin pool still
// serves the next writer. The reply to an empty pool keeps the
// one-address shape, and carries the supply epoch there as a refused
// segment request does.
func (mn *MemNode) handleAllocBlock(payload []byte) []byte {
	cl := int(binary.LittleEndian.Uint64(payload))
	lst := mn.blockPool[cl]
	n := min(poolGrant, (len(lst)+1)/2)
	reply := make([]byte, 1+8*max(n, 1))
	reply[0] = byte(n)
	if n == 0 {
		binary.LittleEndian.PutUint64(reply[1:], mn.Node.Uint64At(SupplyEpochAddr))
	}
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(reply[1+8*i:], lst[len(lst)-1-i])
	}
	mn.blockPool[cl] = lst[:len(lst)-n]
	return reply
}

// Alloc is the client-side (first-level) block allocator: it carves
// BlockSize-granularity blocks out of controller-provided segments and
// keeps per-size-class free lists. All methods run inside the owning sim
// process.
type Alloc struct {
	ep *rdma.Endpoint
	mn *MemNode

	cursor    uint64 // next unused byte in the current segment
	remaining int    // bytes left in the current segment
	free      map[int][]uint64

	// noSeg marks that the controller refused this client a segment, at
	// supply counter segAt; poolAt holds, per size class the pool refused,
	// the pool counter of that refusal — the pool is per class, so blocks
	// of one class are found while another stays refused. A refused level
	// is not asked again, so steady-state eviction/insert cycles never
	// reach the weak controller; with the segment and the class asked for
	// both refused a dry Alloc fails locally, and dry counts those
	// failures, every poolProbeInterval-th of which probes the supply word.
	// A counter that moved clears what was refused at its old value: that
	// is how the client finds memory grown by the elasticity knobs or
	// surrendered by a finished reshard.
	noSeg  bool
	segAt  uint32
	poolAt map[int]uint32
	dry    int

	// grant is the pool request PrefetchGrant posted ahead of need for
	// size class grantCl (0: none in flight).
	grant   rdma.PendingRPC
	grantCl int
}

// poolProbeInterval is how many dry Allocs pass between two probes of
// the supply epoch.
const poolProbeInterval = 32

// SupplyProbeOp is the dry allocator's probe: a one-sided 8-byte READ of
// the supply epoch. Feed the completion to AbsorbSupply.
func SupplyProbeOp() rdma.BatchOp {
	return rdma.BatchOp{Kind: rdma.BatchRead, Addr: SupplyEpochAddr, Len: 8}
}

// AbsorbSupply folds a SupplyProbeOp completion in, reporting whether a
// counter moved since a refusal at its level — the next Alloc of what was
// refused then asks the controller again.
func (a *Alloc) AbsorbSupply(word []byte) (moved bool) {
	w := binary.LittleEndian.Uint64(word)
	if a.noSeg && uint32(w>>32) != a.segAt {
		a.noSeg, moved = false, true
	}
	for cl, at := range a.poolAt {
		if uint32(w) != at {
			delete(a.poolAt, cl)
			moved = true
		}
	}
	return moved
}

// postGrant asks the controller for surrendered blocks of size class cl
// (one RPC) without waiting for the reply; absorbGrant takes it.
func (a *Alloc) postGrant(cl int) rdma.PendingRPC {
	req := make([]byte, 8)
	binary.LittleEndian.PutUint64(req, uint64(cl))
	return a.ep.PostRPC(OpAllocBlock, req)
}

// absorbGrant parks the blocks of a pool reply on class cl's free list,
// the first granted on top, or records the refusal.
func (a *Alloc) absorbGrant(cl int, blk []byte) bool {
	if blk[0] == 0 {
		a.poolAt[cl] = uint32(binary.LittleEndian.Uint64(blk[1:]))
		return false
	}
	delete(a.poolAt, cl)
	for i := 1; i < int(blk[0]); i++ {
		a.free[cl] = append(a.free[cl], binary.LittleEndian.Uint64(blk[1+8*i:]))
	}
	a.free[cl] = append(a.free[cl], binary.LittleEndian.Uint64(blk[1:]))
	return true
}

// collectGrant waits out what is left of the prefetched grant's round
// trip and absorbs it.
func (a *Alloc) collectGrant() bool {
	cl := a.grantCl
	a.grantCl = 0
	return a.absorbGrant(cl, a.grant.Wait())
}

// allocFromPool asks the controller for surrendered blocks of the given
// size class (one RPC): the first granted block is the allocation, the
// rest park on the local free list.
func (a *Alloc) allocFromPool(cl int) (uint64, bool) {
	if !a.absorbGrant(cl, a.postGrant(cl).Wait()) {
		return 0, false
	}
	return a.take(cl)
}

// take pops class cl's local free list.
func (a *Alloc) take(cl int) (uint64, bool) {
	lst := a.free[cl]
	if len(lst) == 0 {
		return 0, false
	}
	addr := lst[len(lst)-1]
	a.free[cl] = lst[:len(lst)-1]
	a.mn.UsedBytes += cl
	a.mn.noteAlloc(addr, cl)
	return addr, true
}

// NewAlloc creates a client allocator speaking to mn through ep.
func NewAlloc(mn *MemNode, ep *rdma.Endpoint) *Alloc {
	return &Alloc{ep: ep, mn: mn, free: make(map[int][]uint64), poolAt: make(map[int]uint32)}
}

// PrefetchGrant posts the pool request the next Alloc of size's class
// would have to wait for, when that is already certain: the class's local
// list is empty, no segment is to be had, and the pool has not refused
// the class. The Alloc that finds the list still empty collects the reply
// (TryAlloc), by then usually arrived. For writers fed by the pool —
// behind the background reclaimer — this takes the controller's round
// trip off the one insert in poolGrant that would otherwise pay it. One
// grant in flight per client.
func (a *Alloc) PrefetchGrant(size int) {
	cl := SizeClass(size)
	if _, refused := a.poolAt[cl]; refused || a.grantCl != 0 || !a.noSeg || a.remaining >= cl || len(a.free[cl]) > 0 {
		return
	}
	a.grant, a.grantCl = a.postGrant(cl), cl
}

// AllocFromPool allocates a block for size bytes straight from the
// controller's surrendered-block pool (one RPC; the rest of the grant
// parks on the local free list), bypassing the local free lists and
// whatever the supply epoch said last. Clients stalled behind the
// background reclaimer use it: the reclaimer frees victims onto its own
// lists and surrenders them to the pool, so this is where reclaimed
// space surfaces first.
func (a *Alloc) AllocFromPool(size int) (uint64, bool) {
	return a.allocFromPool(SizeClass(size))
}

// SizeClass rounds size up to the block granularity.
func SizeClass(size int) int {
	if size <= 0 {
		return BlockSize
	}
	return (size + BlockSize - 1) / BlockSize * BlockSize
}

// Alloc returns the address of a block that fits size bytes, or ok=false
// when the memory pool is exhausted (the caller then evicts and retries).
// A due supply probe is issued here, synchronously, and an epoch that
// moved goes straight on to the controller.
func (a *Alloc) Alloc(size int) (addr uint64, ok bool) {
	addr, ok, probe := a.TryAlloc(size)
	if op := SupplyProbeOp(); probe && a.AbsorbSupply(a.ep.Read(op.Addr, op.Len)) {
		addr, ok, _ = a.TryAlloc(size)
	}
	return addr, ok
}

// TryAlloc is Alloc for a caller that posts the supply probe itself, in
// a verb group it is about to issue anyway: probe reports that this dry
// Alloc is one whose cadence calls for a SupplyProbeOp.
func (a *Alloc) TryAlloc(size int) (addr uint64, ok, probe bool) {
	cl := SizeClass(size)
	if cl > a.mn.segmentSize {
		panic(fmt.Sprintf("memnode: object of %d bytes exceeds segment size %d", size, a.mn.segmentSize))
	}
	if addr, ok = a.take(cl); ok {
		return addr, true, false
	}
	if a.grantCl == cl && a.collectGrant() {
		addr, _ = a.take(cl)
		return addr, true, false
	}
	if a.remaining < cl {
		_, refused := a.poolAt[cl]
		if a.noSeg && refused {
			a.dry++
			return 0, false, a.dry%poolProbeInterval == 0
		}
		if !a.fetchSegment() {
			// No segments left: the controller's pool of blocks surrendered
			// by departed clients is what remains.
			if !refused {
				if addr, ok = a.allocFromPool(cl); ok {
					return addr, true, false
				}
			}
			a.dry = 0
			return 0, false, false
		}
	}
	addr = a.cursor
	a.cursor += uint64(cl)
	a.remaining -= cl
	a.mn.UsedBytes += cl
	a.mn.noteAlloc(addr, cl)
	return addr, true, false
}

// fetchSegment is the second level: a fresh segment from the controller,
// unless it already refused one and none has become grantable since. The
// tail of the old segment (if any) is parked on free lists so it is not
// leaked.
func (a *Alloc) fetchSegment() bool {
	if a.noSeg {
		return false
	}
	a.shredTail()
	reply := a.ep.RPC(OpAllocSeg, nil)
	word := binary.LittleEndian.Uint64(reply[1:])
	if reply[0] == 0 {
		a.noSeg, a.segAt = true, uint32(word>>32)
		return false
	}
	a.cursor, a.remaining = word, a.mn.segmentSize
	return true
}

// shredTail converts the remainder of the current segment into free blocks
// of the largest classes that fit, so switching segments never leaks space.
func (a *Alloc) shredTail() {
	for a.remaining >= BlockSize {
		cl := a.remaining / BlockSize * BlockSize
		if cl > a.mn.segmentSize {
			cl = a.mn.segmentSize
		}
		// Park as one big block in its own class; Alloc of smaller sizes
		// won't use it, but Free/Alloc cycles of equal classes dominate in
		// caches with stable object sizes. Remainders are rare (segment
		// switches only).
		a.free[cl] = append(a.free[cl], a.cursor)
		a.cursor += uint64(cl)
		a.remaining -= cl
	}
	a.remaining = 0
}

// Free returns the block at addr (of the class that fits size) to the
// client-local free list — no network cost, as in the paper's design where
// the evicting client reuses the victim's space. The block need not have
// been allocated by this client: evictions free other clients' blocks.
func (a *Alloc) Free(addr uint64, size int) {
	cl := SizeClass(size)
	a.mn.noteFree(addr, cl)
	a.free[cl] = append(a.free[cl], addr)
	a.mn.UsedBytes -= cl
	if a.mn.UsedBytes < 0 {
		panic("memnode: double free (used bytes went negative)")
	}
}

// Surrender returns every locally parked free block (and the tail of the
// current segment) to the controller's block pool, one RPC per size
// class. Long-lived clients keep their lists — local reuse is the zero-
// cost common case — but a transient client (the resharder) must call
// this before going away, or the space it freed would be stranded.
func (a *Alloc) Surrender() {
	if a.grantCl != 0 {
		a.collectGrant()
	}
	a.shredTail()
	classes := make([]int, 0, len(a.free))
	for cl := range a.free {
		if len(a.free[cl]) > 0 {
			classes = append(classes, cl)
		}
	}
	sort.Ints(classes) // deterministic RPC order
	for _, cl := range classes {
		lst := a.free[cl]
		payload := make([]byte, 8+8*len(lst))
		binary.LittleEndian.PutUint64(payload, uint64(cl))
		for i, addr := range lst {
			binary.LittleEndian.PutUint64(payload[8+8*i:], addr)
		}
		a.ep.RPC(OpFreeBlocks, payload)
	}
	a.free = make(map[int][]uint64)
}

// FreeBlocks reports how many blocks are parked on local free lists.
func (a *Alloc) FreeBlocks() int {
	n := 0
	for _, lst := range a.free {
		n += len(lst)
	}
	return n
}
