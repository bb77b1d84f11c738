package exec

import (
	"bytes"
	"slices"
	"testing"

	"ditto/internal/rdma"
	"ditto/internal/sim"
)

// scriptPlan replays a fixed sequence of verb groups and records every
// completion, optionally short-circuiting after a group.
type scriptPlan struct {
	groups [][]Verb
	stopAt int // short-circuit: finish after absorbing group stopAt (-1 = never)
	next   int
	got    [][]Result
	eager  []bool
}

func (p *scriptPlan) Step(eager bool) []Verb {
	if p.next >= len(p.groups) {
		return nil
	}
	if p.stopAt >= 0 && p.next > p.stopAt {
		return nil
	}
	p.eager = append(p.eager, eager)
	g := p.groups[p.next]
	p.next++
	return g
}

// Absorb copies res: the runners recycle the slice for the next stage.
func (p *scriptPlan) Absorb(res []Result) { p.got = append(p.got, append([]Result(nil), res...)) }

func testNode(env *sim.Env) *rdma.Node {
	return rdma.NewNode(env, 1<<16, rdma.DefaultConfig())
}

func read(ep *rdma.Endpoint, addr uint64, n int) Verb {
	return Verb{EP: ep, Op: rdma.BatchOp{Kind: rdma.BatchRead, Addr: addr, Len: n}}
}

func write(ep *rdma.Endpoint, addr uint64, data []byte) Verb {
	return Verb{EP: ep, Op: rdma.BatchOp{Kind: rdma.BatchWrite, Addr: addr, Data: data}}
}

func cas(ep *rdma.Endpoint, addr, expect, swap uint64) Verb {
	return Verb{EP: ep, Op: rdma.BatchOp{Kind: rdma.BatchCAS, Addr: addr, Expect: expect, Swap: swap}}
}

// TestSerialRunsPlanToCompletion checks the serial strategy runs one
// group per round trip in plan order and feeds groups back: a single-verb
// group is the synchronous verb and rings no doorbell, a multi-verb group
// rings exactly one — its verbs share a round trip, apply in verb order,
// and complete in verb order.
func TestSerialRunsPlanToCompletion(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNode(env)
	rtt := n.Config().RTT
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(n, p)
		pl := &scriptPlan{stopAt: -1, groups: [][]Verb{
			{write(ep, 0, []byte("hello"))},
			{read(ep, 0, 5), read(ep, 0, 2)},
			{cas(ep, 8, 0, 7), write(ep, 0, []byte("HE")), read(ep, 0, 5), cas(ep, 8, 7, 9)},
		}}
		var doorbells []int64
		var took []int64
		r := new(Runner)
		r.Serial.Run(&observedPlan{Plan: pl, before: func() {
			doorbells = append(doorbells, n.Stats.DoorbellBatches)
			took = append(took, p.Now())
		}})
		if len(pl.got) != 3 {
			t.Fatalf("absorbed %d groups, want 3", len(pl.got))
		}
		if !bytes.Equal(pl.got[1][0].Data, []byte("hello")) || !bytes.Equal(pl.got[1][1].Data, []byte("he")) {
			t.Fatalf("reads returned %q, %q", pl.got[1][0].Data, pl.got[1][1].Data)
		}
		g := pl.got[2]
		if len(g) != 4 || !g[0].Swapped || !bytes.Equal(g[2].Data, []byte("HEllo")) || !g[3].Swapped || g[3].Old != 7 {
			t.Fatalf("mixed group completed out of verb order: %+v", g)
		}
		for _, e := range pl.eager {
			if e {
				t.Fatal("serial strategy asked for eager traversal")
			}
		}
		// doorbells[i] is the count before group i was stepped; the last
		// Step (the empty one) sees the total.
		if want := []int64{0, 0, 1, 2}; !slices.Equal(doorbells, want) {
			t.Fatalf("doorbells before each step = %v, want %v (none for a lone verb, one per multi-verb group)", doorbells, want)
		}
		if n.Stats.BatchedVerbs != 6 {
			t.Fatalf("doorbells carried %d verbs, want 6", n.Stats.BatchedVerbs)
		}
		for i := 1; i < len(took); i++ {
			if d := took[i] - took[i-1]; d < rtt || d >= 2*rtt {
				t.Fatalf("group %d took %d ns, want one round trip (RTT %d)", i-1, d, rtt)
			}
		}
	})
	env.Run()
}

// observedPlan calls before ahead of every Step of the wrapped plan.
type observedPlan struct {
	Plan
	before func()
}

func (o *observedPlan) Step(eager bool) []Verb {
	o.before()
	return o.Plan.Step(eager)
}

// serialNestingPlan runs inner on the SAME serial runner from inside its
// Absorb — the shape of a Set falling into inline eviction while its own
// group's completions are still being consumed.
type serialNestingPlan struct {
	scriptPlan
	r     *SerialRunner
	inner Plan
	seen  [][]byte // the outer group's READ data, checked AFTER the nested run
}

func (p *serialNestingPlan) Absorb(res []Result) {
	p.r.Run(p.inner)
	for _, r := range res {
		p.seen = append(p.seen, append([]byte(nil), r.Data...))
	}
}

// TestSerialReentrantRun checks a nested serial run posts from scratch of
// its own: the outer multi-verb group's completions survive it.
func TestSerialReentrantRun(t *testing.T) {
	env := sim.NewEnv(9)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(n, p)
		copy(n.Mem()[0:], "outerinner")
		var r Runner
		inner := &scriptPlan{stopAt: -1, groups: [][]Verb{{read(ep, 5, 5), read(ep, 5, 2)}}}
		outer := &serialNestingPlan{r: &r.Serial, inner: inner, scriptPlan: scriptPlan{
			stopAt: -1, groups: [][]Verb{{read(ep, 0, 5), read(ep, 0, 3)}},
		}}
		r.Serial.Run(outer)
		if len(inner.got) != 1 || !bytes.Equal(inner.got[0][0].Data, []byte("inner")) || !bytes.Equal(inner.got[0][1].Data, []byte("in")) {
			t.Fatalf("nested run absorbed %v", inner.got)
		}
		if len(outer.seen) != 2 || !bytes.Equal(outer.seen[0], []byte("outer")) || !bytes.Equal(outer.seen[1], []byte("out")) {
			t.Fatalf("outer group's completions clobbered by the nested run: %q", outer.seen)
		}
		if n.Stats.DoorbellBatches != 2 {
			t.Fatalf("posted %d doorbells, want 2", n.Stats.DoorbellBatches)
		}
	})
	env.Run()
}

// TestDoorbellOneBatchPerRound checks that a round posts exactly one
// doorbell per endpoint regardless of how many plans contributed.
func TestDoorbellOneBatchPerRound(t *testing.T) {
	env := sim.NewEnv(2)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(n, p)
		var plans []Plan
		for i := 0; i < 8; i++ {
			addr := uint64(i * 8)
			plans = append(plans, &scriptPlan{stopAt: -1, groups: [][]Verb{
				{write(ep, addr, []byte{byte(i)})},
				{read(ep, addr, 1)},
			}})
		}
		new(Runner).Doorbell.Run(plans)
		if n.Stats.DoorbellBatches != 2 {
			t.Fatalf("posted %d doorbells, want 2 (one per round)", n.Stats.DoorbellBatches)
		}
		for i, pl := range plans {
			got := pl.(*scriptPlan).got
			if got[1][0].Data[0] != byte(i) {
				t.Fatalf("plan %d read %d", i, got[1][0].Data[0])
			}
			for _, e := range pl.(*scriptPlan).eager {
				if !e {
					t.Fatal("doorbell strategy asked for lazy traversal")
				}
			}
		}
	})
	env.Run()
}

// TestDoorbellDedupsIdenticalReads checks identical READs across plans in
// one round issue once and fan out, while distinct reads don't merge.
func TestDoorbellDedupsIdenticalReads(t *testing.T) {
	env := sim.NewEnv(3)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(n, p)
		copy(n.Mem()[0:], "shared!!")
		a := &scriptPlan{stopAt: -1, groups: [][]Verb{{read(ep, 0, 8)}}}
		b := &scriptPlan{stopAt: -1, groups: [][]Verb{{read(ep, 0, 8), read(ep, 8, 8)}}}
		new(Runner).Doorbell.Run([]Plan{a, b})
		if n.Stats.Reads != 2 {
			t.Fatalf("issued %d READs, want 2 (shared read deduped)", n.Stats.Reads)
		}
		if !bytes.Equal(a.got[0][0].Data, []byte("shared!!")) ||
			!bytes.Equal(b.got[0][0].Data, []byte("shared!!")) {
			t.Fatal("deduped read did not fan out to both plans")
		}
	})
	env.Run()
}

// TestDoorbellMultiEndpoint checks a round spanning two nodes posts one
// doorbell per endpoint and routes results correctly.
func TestDoorbellMultiEndpoint(t *testing.T) {
	env := sim.NewEnv(4)
	n1, n2 := testNode(env), testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep1, ep2 := rdma.NewEndpoint(n1, p), rdma.NewEndpoint(n2, p)
		copy(n1.Mem()[0:], "one")
		copy(n2.Mem()[0:], "two")
		pl := &scriptPlan{stopAt: -1, groups: [][]Verb{
			{read(ep1, 0, 3), read(ep2, 0, 3)},
		}}
		new(Runner).Doorbell.Run([]Plan{pl})
		if !bytes.Equal(pl.got[0][0].Data, []byte("one")) || !bytes.Equal(pl.got[0][1].Data, []byte("two")) {
			t.Fatalf("cross-node results misrouted: %q %q", pl.got[0][0].Data, pl.got[0][1].Data)
		}
		if n1.Stats.DoorbellBatches != 1 || n2.Stats.DoorbellBatches != 1 {
			t.Fatalf("doorbells: %d/%d, want 1/1", n1.Stats.DoorbellBatches, n2.Stats.DoorbellBatches)
		}
	})
	env.Run()
}

// TestDoorbellPlanOrderPreserved checks same-round CASes land in plan
// order: the first plan's CAS wins, later ones observe it.
func TestDoorbellPlanOrderPreserved(t *testing.T) {
	env := sim.NewEnv(5)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(n, p)
		a := &scriptPlan{stopAt: -1, groups: [][]Verb{{cas(ep, 0, 0, 11)}}}
		b := &scriptPlan{stopAt: -1, groups: [][]Verb{{cas(ep, 0, 0, 22)}}}
		new(Runner).Doorbell.Run([]Plan{a, b})
		if !a.got[0][0].Swapped {
			t.Fatal("first plan's CAS lost")
		}
		if b.got[0][0].Swapped || b.got[0][0].Old != 11 {
			t.Fatalf("second plan's CAS: swapped=%v old=%d, want loss observing 11",
				b.got[0][0].Swapped, b.got[0][0].Old)
		}
	})
	env.Run()
}

// TestShortCircuitSkipsRemainingStages checks a plan that finishes early
// (hit in the first bucket) stops being stepped under both strategies.
func TestShortCircuitSkipsRemainingStages(t *testing.T) {
	for _, s := range []Strategy{Serial, Doorbell} {
		env := sim.NewEnv(6)
		n := testNode(env)
		env.Go("c", func(p *sim.Proc) {
			ep := rdma.NewEndpoint(n, p)
			pl := &scriptPlan{stopAt: 0, groups: [][]Verb{
				{read(ep, 0, 4)},
				{read(ep, 8, 4)}, // must never be issued
			}}
			new(Runner).RunOne(s, pl)
			if len(pl.got) != 1 || n.Stats.Reads != 1 {
				t.Fatalf("%v: absorbed %d groups with %d READs, want 1/1",
					s, len(pl.got), n.Stats.Reads)
			}
		})
		env.Run()
	}
}

// TestRunEmpty covers degenerate inputs.
func TestRunEmpty(t *testing.T) {
	new(Runner).RunPlans(Doorbell, nil)
	new(Runner).RunPlans(Serial, nil)
	env := sim.NewEnv(7)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		pl := &scriptPlan{stopAt: -1} // no groups at all
		new(Runner).RunOne(Doorbell, pl)
		new(Runner).RunOne(Serial, pl)
		if n.Stats.Total() != 0 {
			t.Fatal("empty plans issued verbs")
		}
	})
	env.Run()
}

// nestingPlan runs inner on the SAME doorbell runner from inside its
// Absorb — the shape of a completion hook falling into doorbell-strategy
// work while the outer round's state is live.
type nestingPlan struct {
	scriptPlan
	r     *DoorbellRunner
	inner []Plan
}

func (p *nestingPlan) Absorb(res []Result) {
	p.scriptPlan.Absorb(res)
	p.r.Run(p.inner)
}

// TestDoorbellReentrantRun checks a nested Run on a busy runner completes
// its plans without disturbing the outer round: both see their own
// completions, and the outer plan still advances to its later stage.
func TestDoorbellReentrantRun(t *testing.T) {
	env := sim.NewEnv(8)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(n, p)
		copy(n.Mem()[0:], "outerinner")
		var r Runner
		inner := &scriptPlan{stopAt: -1, groups: [][]Verb{{read(ep, 5, 5)}}}
		outer := &nestingPlan{r: &r.Doorbell, inner: []Plan{inner}, scriptPlan: scriptPlan{
			stopAt: 0, groups: [][]Verb{{read(ep, 0, 5)}},
		}}
		sibling := &scriptPlan{stopAt: -1, groups: [][]Verb{{read(ep, 0, 2)}, {read(ep, 2, 3)}}}
		r.Doorbell.Run([]Plan{outer, sibling})
		if len(inner.got) != 1 || !bytes.Equal(inner.got[0][0].Data, []byte("inner")) {
			t.Fatalf("nested run absorbed %v", inner.got)
		}
		if !bytes.Equal(outer.got[0][0].Data, []byte("outer")) {
			t.Fatalf("outer plan read %q", outer.got[0][0].Data)
		}
		if len(sibling.got) != 2 || !bytes.Equal(sibling.got[1][0].Data, []byte("ter")) {
			t.Fatalf("sibling plan derailed by the nested run: %v", sibling.got)
		}
	})
	env.Run()
}

// nestedVerbPlan issues a synchronous verb from inside its first Absorb —
// the shape of a Set whose staging falls into an inline eviction.
type nestedVerbPlan struct {
	scriptPlan
	ep *rdma.Endpoint
}

func (p *nestedVerbPlan) Absorb(res []Result) {
	p.scriptPlan.Absorb(res)
	if len(p.got) == 1 {
		p.ep.Read(0, 8)
	}
}

// TestDoorbellNodeFailureTakesOnlyItsPlans: a node that fail-stops under a
// run takes its own plans with it and nobody else's. The fabric applies the
// live endpoint's batch before it raises, so a plan whose verbs went to the
// live node absorbs every group and runs to completion; a plan with a verb
// on the dead endpoint is dropped unabsorbed, as is one whose own Absorb
// reached the dead node through a nested verb — its sibling on the live
// node, later in the same round, still absorbs. The run raises the typed
// failure only once the survivors are done, and the runner is reusable.
func TestDoorbellNodeFailureTakesOnlyItsPlans(t *testing.T) {
	for _, nested := range []bool{false, true} {
		env := sim.NewEnv(9)
		a, b := testNode(env), testNode(env)
		copy(a.Mem()[0:], "alive")
		env.Go("c", func(p *sim.Proc) {
			epA, epB := rdma.NewEndpoint(a, p), rdma.NewEndpoint(b, p)
			live := func() *scriptPlan {
				return &scriptPlan{stopAt: -1, groups: [][]Verb{
					{read(epA, 0, 5)}, {cas(epA, 8, 0, 7)}, {read(epA, 8, 8)},
				}}
			}
			before, after := live(), live()
			after.groups[1] = []Verb{cas(epA, 16, 0, 9)}
			dead := &nestedVerbPlan{ep: epB, scriptPlan: scriptPlan{stopAt: -1, groups: [][]Verb{
				{read(epB, 0, 8)}, {read(epB, 8, 8)},
			}}}
			if !nested {
				// Fail-stop while round 1 is in flight: B's batch never applies.
				env.Go("fault", func(fp *sim.Proc) { fp.Sleep(b.Config().RTT / 2); b.Fail() })
			} else {
				// Fail-stop while the plan's nested verb is in flight, after
				// round 1 completed on both nodes.
				env.Go("fault", func(fp *sim.Proc) { fp.Sleep(b.Config().RTT * 3 / 2); b.Fail() })
			}
			var r Runner
			err := rdma.CatchUnreachable(func() { r.Doorbell.Run([]Plan{before, dead, after}) })
			if !rdma.IsUnreachable(err) {
				t.Fatalf("nested=%v: run over a failed node returned %v, want the typed failure", nested, err)
			}
			for name, pl := range map[string]*scriptPlan{"before": before, "after": after} {
				if len(pl.got) != 3 || !bytes.Equal(pl.got[0][0].Data, []byte("alive")) || !pl.got[1][0].Swapped {
					t.Errorf("nested=%v: live plan %q absorbed %v, want all three groups", nested, name, pl.got)
				}
			}
			if want := map[bool]int{false: 0, true: 1}[nested]; len(dead.got) != want {
				t.Errorf("nested=%v: the dead node's plan absorbed %d groups, want %d", nested, len(dead.got), want)
			}
			if a.Uint64At(8) != 7 || a.Uint64At(16) != 9 {
				t.Errorf("nested=%v: live node holds %d/%d, want both CASes applied", nested, a.Uint64At(8), a.Uint64At(16))
			}
			// Reusable, and the failure does not stick to the next run.
			again := live()
			again.groups = again.groups[:1]
			r.Doorbell.Run([]Plan{again})
			if len(again.got) != 1 {
				t.Errorf("nested=%v: runner unusable after a failed run", nested)
			}
		})
		env.Run()
	}
}
