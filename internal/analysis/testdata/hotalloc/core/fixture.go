// Fixture for the hotalloc analyzer, plan side: loaded by RunFixture
// under the import path ditto/internal/core, so methods on types whose
// name ends in "Plan" are swept. Lines carrying no annotation are the
// sanctioned zero-alloc patterns the real plans use.

package core

type verb struct {
	addr uint64
	data []byte
}

type fakePlan struct {
	c     int
	verbs []verb
	bufs  [][]byte
	done  func()
}

// Step shows the sanctioned idiom — value struct literals appended
// into the plan's retained slice allocate nothing — next to every
// flagged form.
func (pl *fakePlan) Step(eager bool) []verb {
	pl.verbs = append(pl.verbs[:0], verb{addr: 8}) // value literal into retained slice: no finding

	scratch := make([]byte, 40)                    // want `make in hot function Step allocates per call`
	pl.verbs = append(pl.verbs, verb{data: scratch})

	return []verb{{addr: 16}} // want `\[\]core\.verb literal in hot function Step allocates per call`
}

func (pl *fakePlan) Absorb(res []int) {
	pl.done = func() { pl.c++ } // want `function literal in hot function Absorb allocates its closure per call`

	p := &fakePlan{} // want `&core\.fakePlan literal in hot function Absorb heap-allocates per call`
	_ = p

	seen := map[uint64]bool{} // want `map\[uint64\]bool literal in hot function Absorb allocates per call`
	_ = seen

	q := new(fakePlan) // want `new in hot function Absorb allocates per call`
	_ = q
}

func (pl *fakePlan) reset(c int) {
	pl.c = c
	pl.verbs = pl.verbs[:0] // retained-scratch reset: no finding
	// Cold ablation branch, deliberately allocating — the escape hatch.
	if c < 0 {
		//dittolint:allow hotalloc (cold ablation branch: runs only under a disabled-by-default flag)
		pl.bufs = append(pl.bufs, make([]byte, 40))
	}
}

// newFakePlan is a constructor, not a plan method by receiver — the
// allocate-on-construction form stays legal (pool misses call it).
func newFakePlan() *fakePlan {
	return &fakePlan{verbs: make([]verb, 0, 4)} // constructor: no finding
}

// fakeSpecGetPlan mirrors the speculative-Get plan: Step sizes the
// retained READ buffer through a free grow helper and appends its ONE
// hinted READ into the retained verbs slice; Absorb validates the image
// in place. The flagged forms are the regressions that would silently
// re-allocate the hinted fast path (the one allocs_test pins at 0).
type fakeSpecGetPlan struct {
	key   []byte
	buf   []byte
	verbs []verb
	ok    bool
}

func (pl *fakeSpecGetPlan) Step(eager bool) []verb {
	pl.buf = growFixture(pl.buf, 64)                             // free grow helper: no finding
	pl.verbs = append(pl.verbs[:0], verb{addr: 4, data: pl.buf}) // one hinted READ: no finding
	return pl.verbs
}

func (pl *fakeSpecGetPlan) Absorb(res []int) {
	pl.ok = len(res) == 1 && len(pl.buf) >= len(pl.key) // in-place validation: no finding

	keyCopy := []byte{0} // want `\[\]byte literal in hot function Absorb allocates per call`
	_ = keyCopy

	onStale := func() { pl.ok = false } // want `function literal in hot function Absorb allocates its closure per call`
	_ = onStale
}

// fakeArmedSetPlan mirrors the store plan's riders and its displacement:
// while the walk scans — or READs the metadata of the occupants of two
// full buckets — Step appends the armed eviction's group and the
// allocator's one-verb supply probe behind the plan's own in the SAME
// retained slice, and Absorb hands each its share of the completions by
// subslicing; the displacement's candidates live in a retained slice
// too. The flagged forms are the ways that composition would quietly
// allocate per Set into a full cache (the row allocs_test pins at 0).
type fakeArmedSetPlan struct {
	verbs  []verb
	ev     *fakePlan
	probe  bool
	buf    []byte
	nWalk  int
	dcands []uint64
}

func (pl *fakeArmedSetPlan) Step(eager bool) []verb {
	pl.verbs = append(pl.verbs[:0], verb{addr: 8}) // the walk's group: no finding
	return pl.ride(pl.verbs, eager)
}

func (pl *fakeArmedSetPlan) ride(vs []verb, eager bool) []verb {
	pl.nWalk = len(vs)
	if pl.ev != nil {
		vs = append(vs, pl.ev.Step(eager)...) // the eviction's rides behind it: no finding
	}
	if pl.probe {
		pl.buf = growFixture(pl.buf, 8)
		vs = append(vs, verb{addr: 56, data: pl.buf}) // the supply probe into a retained buffer: no finding
	}

	joined := append([]verb{}, vs...) // want `\[\]core\.verb literal in hot function ride allocates per call`
	_ = joined

	pl.verbs = vs
	return vs
}

func (pl *fakeArmedSetPlan) Absorb(res []int) {
	if pl.probe {
		pl.probe = false
		res = res[:len(res)-1] // the probe's completion comes off the end: no finding
	}
	if len(res) > pl.nWalk {
		pl.ev.Absorb(res[pl.nWalk:]) // subslice hand-off: no finding
		res = res[:pl.nWalk]
	}

	mine := make([]int, pl.nWalk) // want `make in hot function Absorb allocates per call`
	copy(mine, res)

	pl.ev = &fakePlan{} // want `&core\.fakePlan literal in hot function Absorb heap-allocates per call`
}

// finishScan collects the displacement's candidates over the slots the
// walk already decoded, into the plan's retained slice.
func (pl *fakeArmedSetPlan) finishScan(slots []uint64) {
	pl.dcands = pl.dcands[:0]
	for _, s := range slots {
		pl.dcands = append(pl.dcands, s) // retained scratch: no finding
	}

	cands := make([]uint64, 0, len(slots)) // want `make in hot function finishScan allocates per call`
	_ = cands
}

// fan and fakeSetBatch mirror the batched driver (batch.go): the driver's
// methods and the operations' pass halves (receiver type name ending in
// "Batch") are swept. A phase reaches every group as a method EXPRESSION —
// a plain function value, no closure — the pass's plans gather in the
// fan's retained slice, and the per-group failure guard's non-escaping
// closure is the one reasoned exception. The flagged forms are the per-call slices and
// closures a fan-out is tempted to build (the rows allocs_test pins at the
// single-cluster ceilings).
type fan struct {
	groups [][]int
	plans  []*fakePlan
}

type fakeSetBatch struct {
	pool []*fakePlan
	kept []*fakePlan
}

func (b *fakeSetBatch) stage(f *fan, idxs []int) {
	b.kept = b.kept[:0] // retained-scratch reset: no finding
	for range idxs {
		pl := b.pool[len(b.pool)-1] // pooled plan: no finding
		b.kept, f.plans = append(b.kept, pl), append(f.plans, pl)
	}

	seen := make(map[int]bool, len(idxs)) // want `make in hot function stage allocates per call`
	_ = seen
}

func (f *fan) each(b *fakeSetBatch, phase func(*fakeSetBatch, *fan, []int)) {
	for _, g := range f.groups {
		//dittolint:allow hotalloc (non-escaping closure: stack-allocated; allocs_test pins the batched rows)
		catchFixture(func() { phase(b, f, g) })
	}
}

// catchFixture is the free-function failure guard (rdma.CatchUnreachable).
func catchFixture(fn func()) {
	defer func() { _ = recover() }() // free function: no finding
	fn()
}

func (f *fan) pass(b *fakeSetBatch) {
	f.plans = f.plans[:0]
	f.each(b, (*fakeSetBatch).stage) // method expression: no finding

	f.each(b, func(b *fakeSetBatch, f *fan, g []int) { b.stage(f, g) }) // want `function literal in hot function pass allocates its closure per call`

	sub := make([][]int, len(f.groups)) // want `make in hot function pass allocates per call`
	_ = sub
}

// growFixture is the free-function grow idiom: allocation lives outside
// the swept plan methods, exactly like core's real grow helper.
func growFixture(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n) // free helper, not a plan method: no finding
	}
	return b[:n]
}

type helper struct{}

// run is a method on a non-Plan receiver: not swept.
func (helper) run() []byte {
	return make([]byte, 8) // non-Plan receiver: no finding
}
