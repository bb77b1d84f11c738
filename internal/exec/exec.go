// Package exec is the verb-plan executor: the single engine behind
// Ditto's serial, batched, and migration I/O.
//
// The paper's client-centric design (§4.1) makes every cache operation a
// short, fixed sequence of one-sided verbs composed client-side — bucket
// READ(s), object READ(s), an object WRITE, a publishing CAS — with
// fallback edges where a snapshot can go stale or a CAS can lose a race.
// This package lets an operation be expressed ONCE as such a staged verb
// plan (a Plan), and runs any set of plans under a pluggable Strategy:
//
//   - Serial: one verb GROUP per round trip, traversing each plan lazily
//     — a stage short-circuits as soon as its outcome is known (a Get
//     that hits in the main bucket never reads the backup bucket). A
//     group is what its plan declared independent, so a round trip costs
//     a dependency level, not a verb: a lone verb is issued
//     synchronously, two or more ring one doorbell. This is the paper's
//     per-key critical path and its verb budget.
//   - Doorbell: plans advance in lock-step rounds; each round gathers
//     every plan's next verbs and posts them per endpoint with ONE RNIC
//     doorbell (rdma.Endpoint.PostBatch), so the whole round costs its
//     RNIC service time plus a single RTT. Plans traverse eagerly (both
//     candidate buckets at once) so a round is one pipeline stage across
//     the batch. Identical READs posted by different plans in the same
//     round are issued once and fanned out.
//
// Plans whose attempt hits a complication they cannot resolve from what
// their verbs returned (stale snapshot, full bucket, a CAS lost to an
// unrelated writer) simply finish with that outcome; their drivers re-run
// the SAME plan definition — a batch driver its unsettled keys together,
// under Doorbell again — so batched and sequential execution are
// observably equivalent by construction, and the verb sequences live in
// exactly one place.
package exec

import "ditto/internal/rdma"

// Strategy selects how a set of plans traverses its verb stages. The
// strategies differ ONLY in traversal shape and round-trip overlap —
// every plan reaches the same outcome under either (complications
// included), which is what lets a driver re-run a plan under whichever
// strategy suits it without changing observable behaviour.
type Strategy int

// The two execution strategies.
const (
	// Serial runs plans one at a time, one verb group per round trip,
	// with lazy (short-circuiting) stage traversal.
	Serial Strategy = iota
	// Doorbell runs plans in lock-step rounds, posting each round's verbs
	// as one doorbell batch per endpoint, with eager stage traversal.
	Doorbell
)

// String returns the strategy's lowercase name ("serial"/"doorbell"),
// stable for use in subtest names and bench output.
func (s Strategy) String() string {
	if s == Doorbell {
		return "doorbell"
	}
	return "serial"
}

// Verb is one one-sided verb of a plan stage, addressed to the endpoint
// that must issue it (plans may span endpoints: a migration reads and
// CASes the source node while writing the destination, and a replica
// fan-out writes several destinations at once). A Verb is immutable
// once emitted by Step: the executor may issue it in any round-trip
// order relative to OTHER plans' verbs, but never reorders verbs within
// one plan's emission.
type Verb struct {
	EP *rdma.Endpoint
	Op rdma.BatchOp
}

// Result is the completion of one Verb. Results are delivered to Absorb
// in the same order as the Verbs of the group that produced them —
// Result[i] completes Verb[i] — regardless of strategy.
type Result = rdma.BatchResult

// Plan is one cache operation attempt expressed as staged verb groups.
// The executor repeatedly calls Step for the next group, issues it under
// the strategy, and feeds the completions to Absorb; a nil Step ends the
// plan (its outcome is plan-specific state the driver inspects).
//
// eager selects the batched shape of a stage — e.g. read BOTH candidate
// buckets, then ALL candidate objects, as one group each — over the
// serial shape, which yields the smallest group whose result can
// short-circuit the rest (one bucket, then one object at a time). This
// flag is the ONLY difference between how the two strategies traverse a
// plan; everything else (what is read, how results are interpreted,
// which fallback edge is taken) is shared.
type Plan interface {
	Step(eager bool) []Verb
	Absorb(res []Result)
}

// issueSync issues one verb through the endpoint's synchronous API.
func issueSync(v Verb) Result {
	switch v.Op.Kind {
	case rdma.BatchRead:
		return Result{Data: v.EP.ReadInto(v.Op.Addr, v.Op.Len, v.Op.Buf)}
	case rdma.BatchWrite:
		v.EP.Write(v.Op.Addr, v.Op.Data)
		return Result{}
	case rdma.BatchCAS:
		old, swapped := v.EP.CAS(v.Op.Addr, v.Op.Expect, v.Op.Swap)
		return Result{Old: old, Swapped: swapped}
	case rdma.BatchFAA:
		return Result{Old: v.EP.FAA(v.Op.Addr, v.Op.Delta)}
	}
	panic("exec: unknown verb kind")
}

// Runner executes plans under either strategy: one per client (or
// reclaimer, or test), so its scratch is single-proc-owned and
// steady-state execution allocates nothing. The zero value is ready to
// use. Every plan's Absorb has seen the completion of every verb it
// emitted by the time a run returns.
//
// Plans driven through a Runner must not retain the []Result slice
// passed to Absorb past the Absorb call — it is recycled for the next
// stage. (Result.Data buffers are not recycled by the runner; their
// lifetime is whatever the plan arranged via BatchOp.Buf.)
type Runner struct {
	Serial   SerialRunner
	Doorbell DoorbellRunner
	one      [1]Plan
}

// RunOne drives a single plan to completion under the strategy.
func (r *Runner) RunOne(s Strategy, p Plan) {
	if s == Doorbell {
		r.one[0] = p
		r.Doorbell.Run(r.one[:])
		r.one[0] = nil
		return
	}
	r.Serial.Run(p)
}

// RunPlans drives a set of plans under the strategy until every plan
// finishes (Step returns an empty group): one after another under
// Serial, together in lock-step rounds under Doorbell.
func (r *Runner) RunPlans(s Strategy, plans []Plan) {
	if s == Doorbell {
		r.Doorbell.Run(plans)
		return
	}
	for _, p := range plans {
		r.Serial.Run(p)
	}
}

// SerialRunner drives plans one group per round trip: a single-verb
// group is the synchronous verb (queueing plus one RTT, no doorbell —
// every one-verb chain costs exactly what it always did), a group of two
// or more is ONE doorbell through the post path DoorbellRunner uses, so
// verbs a plan declared independent overlap their round trips. The
// strategies therefore differ only in lazy-vs-eager traversal and
// lock-step across plans.
//
// Post scratch lives in a stack of frames, which makes Run re-entrant: a
// Step or Absorb that starts a nested serial run (a Set falling into
// inline eviction) takes frames of its own and returns them before the
// outer stage resumes.
type SerialRunner struct {
	free []*serialFrame
}

// serialFrame is the scratch of one in-flight group: its verbs gathered
// per endpoint (first-use order, verb order within one), where each verb
// landed, and its completions back in verb order.
type serialFrame struct {
	posts []rdma.EndpointBatch
	at    []opAt
	res   []Result
}

// opAt locates one verb of a group: posts[batch].Ops[op].
type opAt struct{ batch, op int }

// Run drives one plan to completion.
func (r *SerialRunner) Run(p Plan) {
	for {
		vs := p.Step(false)
		if len(vs) == 0 {
			return
		}
		var f *serialFrame
		if n := len(r.free); n > 0 {
			f, r.free = r.free[n-1], r.free[:n-1]
		} else {
			//dittolint:allow hotalloc (free-list miss: one frame per nesting depth, amortized to zero at steady state)
			f = new(serialFrame)
		}
		if len(vs) == 1 {
			f.res = append(f.res[:0], issueSync(vs[0]))
		} else {
			r.post(f, vs)
		}
		p.Absorb(f.res)
		r.free = append(r.free, f)
	}
}

// post rings one doorbell per endpoint for the group and leaves the
// completions in f.res, Result[i] completing vs[i].
func (r *SerialRunner) post(f *serialFrame, vs []Verb) {
	f.posts, f.at = f.posts[:0], f.at[:0]
	for _, v := range vs {
		b := 0
		for b < len(f.posts) && f.posts[b].EP != v.EP {
			b++
		}
		if b == len(f.posts) {
			if b < cap(f.posts) { // reuse the retired batch's op and result capacity
				f.posts = f.posts[:b+1]
				f.posts[b].EP, f.posts[b].Ops = v.EP, f.posts[b].Ops[:0]
			} else {
				f.posts = append(f.posts, rdma.EndpointBatch{EP: v.EP})
			}
		}
		f.at = append(f.at, opAt{b, len(f.posts[b].Ops)})
		f.posts[b].Ops = append(f.posts[b].Ops, v.Op)
	}
	rdma.PostMultiInPlace(f.posts)
	f.res = f.res[:0]
	for _, at := range f.at {
		f.res = append(f.res, f.posts[at.batch].Res[at.op])
	}
}

// slot maps one plan verb to its position in an endpoint batch.
type slot struct {
	ep  *rdma.Endpoint
	idx int
}

// epBatch accumulates one endpoint's ops for a round.
type epBatch struct {
	ep    *rdma.Endpoint
	ops   []rdma.BatchOp
	reads map[readKey]int // dedup: identical READs issue once
	res   []Result
}

// readKey identifies a read for within-round deduplication.
type readKey struct {
	addr uint64
	len  int
}

// dbPending is one plan's share of a pooled doorbell round: its verbs
// occupy slots [lo, hi) of the runner's slot arena. Ranges (not
// subslices) because the arena may grow while later plans append. A plan
// the round drops (see DoorbellRunner) is nil.
type dbPending struct {
	plan   Plan
	lo, hi int
}

// DoorbellRunner drives plans in lock-step rounds. Each round collects
// every unfinished plan's next verb group, posts one doorbell batch per
// endpoint (endpoints in first-use order, verbs in plan order) with the
// round trips overlapped across endpoints too (queue pairs to different
// nodes are independent, so a round spanning the migration source and
// several destinations still costs ~one RTT), scatters the completions
// back, and lets every plan absorb before the next round begins. Plans
// at different stages coexist in a round — a plan that skips a stage (no
// candidate objects to read) posts its next stage's verbs alongside the
// others', which only merges doorbells, never reorders one plan's own
// verbs. Identical READs across plans are issued once; WRITE/CAS/FAA are
// never deduplicated.
//
// A node that fail-stops under a run takes only its own plans with it.
// The fabric applies the live endpoints' batches and fills their
// completions before it raises (rdma.PostMultiInPlace), so a plan whose
// group went to live nodes only absorbs and keeps running; a plan with a
// verb on the dead endpoint — or whose own Step or Absorb reached the dead
// node through a nested verb — is dropped where it stands, unabsorbed. The
// run finishes every surviving plan and THEN raises the first
// *rdma.NodeUnreachableError: a caller that recovers it finds each plan
// either complete or belonging to a node that is down.
//
// Every piece of round state — the active set, the per-endpoint batches
// and their result slices, the slot arena, the post list — is retained
// across runs, so a steady-state round allocates nothing (results land
// in place via rdma.PostMultiInPlace). A re-entrant run (an Absorb that
// falls into doorbell-strategy eviction) gets a fresh runner of its own
// rather than clobbering the in-flight round's state.
type DoorbellRunner struct {
	busy    bool
	active  []Plan
	round   []dbPending
	order   []*epBatch
	batches map[*rdma.Endpoint]*epBatch
	freeEB  []*epBatch
	posts   []rdma.EndpointBatch
	slots   []slot
	res     []Result
	down    *rdma.NodeUnreachableError // first node failure of the run in flight
}

// Run drives the plans to completion.
func (r *DoorbellRunner) Run(plans []Plan) {
	if r.busy {
		var nested DoorbellRunner
		nested.Run(plans)
		return
	}
	r.busy = true
	//dittolint:allow hotalloc (deferred busy-reset closure is open-coded by the compiler and stack-allocated; kept for panic safety)
	defer func() { r.busy = false }()
	if r.batches == nil {
		//dittolint:allow hotalloc (once-per-runner lazy init, not per call)
		r.batches = make(map[*rdma.Endpoint]*epBatch)
	}
	r.down = nil
	r.active = append(r.active[:0], plans...)
	active := r.active
	for len(active) > 0 {
		r.round = r.round[:0]
		r.slots = r.slots[:0]
		r.freeEB = append(r.freeEB, r.order...)
		r.order = r.order[:0]
		clear(r.batches)
		for i := 0; i < len(active); {
			i = r.gather(active, i)
		}
		if len(r.round) == 0 {
			break
		}
		r.posts = r.posts[:0]
		for _, b := range r.order {
			r.posts = append(r.posts, rdma.EndpointBatch{EP: b.ep, Ops: b.ops, Res: b.res[:0]})
		}
		r.post()
		for i, b := range r.order {
			b.res = r.posts[i].Res // nil: the endpoint's node is down
		}
		for i := 0; i < len(r.round); {
			i = r.scatter(i)
		}
		active = active[:0]
		for _, pd := range r.round {
			if pd.plan != nil {
				active = append(active, pd.plan)
			}
		}
	}
	// Drop plan references so finished plans are not pinned by the
	// runner between operations (they go back to the caller's pool).
	clear(r.active[:cap(r.active)])
	r.active = r.active[:0]
	for i := range r.round {
		r.round[i].plan = nil
	}
	if r.down != nil {
		//dittolint:allow typederr (re-raising the fabric's own typed failure once the surviving plans are complete)
		panic(r.down)
	}
}

// caught is what the round's three phases defer around their plan calls
// and the post: it turns a recovered node failure into the run's pending
// one and reports true; any other panic keeps unwinding.
func (r *DoorbellRunner) caught(rec any) bool {
	if rec == nil {
		return false
	}
	down, ok := rec.(*rdma.NodeUnreachableError)
	if !ok {
		//dittolint:allow typederr (not ours: re-raised untouched)
		panic(rec)
	}
	if r.down == nil {
		r.down = down
	}
	return true
}

// gather steps active[i:] into the round and returns where to resume: past
// the end, or past a plan whose Step raised a node failure (dropped).
func (r *DoorbellRunner) gather(active []Plan, i int) (resume int) {
	//dittolint:allow hotalloc (open-coded deferred closure, stack-allocated)
	defer func() {
		if r.caught(recover()) {
			resume = i + 1
		}
	}()
	for ; i < len(active); i++ {
		p := active[i]
		vs := p.Step(true)
		if len(vs) == 0 {
			continue // plan finished
		}
		lo := len(r.slots)
		for _, v := range vs {
			b := r.batches[v.EP]
			if b == nil {
				b = r.getEpBatch(v.EP)
				r.batches[v.EP] = b
				r.order = append(r.order, b)
			}
			if v.Op.Kind == rdma.BatchRead {
				k := readKey{addr: v.Op.Addr, len: v.Op.Len}
				if j, seen := b.reads[k]; seen {
					r.slots = append(r.slots, slot{ep: v.EP, idx: j})
					continue
				}
				b.reads[k] = len(b.ops)
			}
			r.slots = append(r.slots, slot{ep: v.EP, idx: len(b.ops)})
			b.ops = append(b.ops, v.Op)
		}
		r.round = append(r.round, dbPending{plan: p, lo: lo, hi: len(r.slots)})
	}
	return i
}

// post rings the round's doorbells. A node failure leaves the dead
// endpoint's completions nil and every live one's filled.
func (r *DoorbellRunner) post() {
	//dittolint:allow hotalloc (open-coded deferred closure, stack-allocated)
	defer func() { r.caught(recover()) }()
	rdma.PostMultiInPlace(r.posts)
}

// scatter hands round[i:] their completions and returns where to resume,
// as gather does. A plan with a verb on a dead endpoint is dropped
// unabsorbed; so is one whose Absorb raised a node failure.
func (r *DoorbellRunner) scatter(i int) (resume int) {
	//dittolint:allow hotalloc (open-coded deferred closure, stack-allocated)
	defer func() {
		if r.caught(recover()) {
			r.round[i].plan = nil
			resume = i + 1
		}
	}()
	for ; i < len(r.round); i++ {
		pd := &r.round[i]
		res, live := r.res[:0], true
		for _, s := range r.slots[pd.lo:pd.hi] {
			b := r.batches[s.ep]
			if live = b.res != nil; !live {
				break
			}
			res = append(res, b.res[s.idx])
		}
		r.res = res[:0]
		if !live {
			pd.plan = nil
			continue
		}
		pd.plan.Absorb(res)
	}
	return i
}

// getEpBatch recycles an endpoint batch from the free list or makes one.
func (r *DoorbellRunner) getEpBatch(ep *rdma.Endpoint) *epBatch {
	if n := len(r.freeEB); n > 0 {
		b := r.freeEB[n-1]
		r.freeEB = r.freeEB[:n-1]
		b.ep = ep
		b.ops = b.ops[:0]
		b.res = b.res[:0]
		clear(b.reads)
		return b
	}
	//dittolint:allow hotalloc (free-list miss: pool growth, amortized to zero at steady state)
	return &epBatch{ep: ep, reads: make(map[readKey]int)}
}
