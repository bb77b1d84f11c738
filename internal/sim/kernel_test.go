package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refKernel is the scheduler-goroutine kernel direct handoff replaced,
// kept as the ordering oracle: every yield is a round trip through run's
// loop, which alone pops the heap. It borrows Proc and eventHeap as plain
// data; nothing in it calls into Env.
type refKernel struct {
	now     int64
	seq     uint64
	events  eventHeap
	sched   chan struct{}
	stopped bool
	conds   [2][]*Proc
}

func (k *refKernel) push(t int64, p *Proc) {
	k.seq++
	k.events.push(event{t: t, seq: k.seq, p: p})
}

func (k *refKernel) yield(p *Proc) {
	k.sched <- struct{}{}
	<-p.resume
}

func (k *refKernel) run() {
	for len(k.events) > 0 && !k.stopped {
		ev := k.events.pop()
		if ev.p.done {
			continue
		}
		k.now = ev.t
		ev.p.resume <- struct{}{}
		<-k.sched
	}
	k.stopped = false
}

func (k *refKernel) goAt(t int64, fn func(p *Proc)) *Proc {
	p := &Proc{resume: make(chan struct{})}
	go func() {
		defer func() {
			p.done = true
			k.sched <- struct{}{}
		}()
		<-p.resume
		fn(p)
	}()
	k.push(t, p)
	return p
}

func (k *refKernel) clock() int64                { return k.now }
func (k *refKernel) sleep(p *Proc, d int64)      { k.push(k.now+max(d, 0), p); k.yield(p) }
func (k *refKernel) sleepUntil(p *Proc, t int64) { k.push(max(t, k.now), p); k.yield(p) }
func (k *refKernel) wait(p *Proc, c int)         { k.conds[c] = append(k.conds[c], p); k.yield(p) }
func (k *refKernel) kill(p *Proc)                { p.done = true }
func (k *refKernel) stop()                       { k.stopped = true }
func (k *refKernel) broadcast(c int) {
	for _, w := range k.conds[c] {
		k.push(k.now, w)
	}
	k.conds[c] = k.conds[c][:0]
}

// envKernel is the shipped kernel behind the same verbs.
type envKernel struct {
	env   *Env
	conds [2]*Cond
}

func (k *envKernel) clock() int64                         { return k.env.Now() }
func (k *envKernel) run()                                 { k.env.Run() }
func (k *envKernel) goAt(t int64, fn func(p *Proc)) *Proc { return k.env.GoAt(t, "p", fn) }
func (k *envKernel) sleep(p *Proc, d int64)               { p.Sleep(d) }
func (k *envKernel) sleepUntil(p *Proc, t int64)          { p.SleepUntil(t) }
func (k *envKernel) wait(p *Proc, c int)                  { k.conds[c].Wait(p) }
func (k *envKernel) broadcast(c int)                      { k.conds[c].Broadcast() }
func (k *envKernel) kill(p *Proc)                         { k.env.Kill(p) }
func (k *envKernel) stop()                                { k.env.Stop() }

type kernel interface {
	clock() int64
	run()
	goAt(t int64, fn func(p *Proc)) *Proc
	sleep(p *Proc, d int64)
	sleepUntil(p *Proc, t int64)
	wait(p *Proc, c int)
	broadcast(c int)
	kill(p *Proc)
	stop()
}

// step is one line of a program's transcript: proc (in spawn order; -1
// is the goroutine calling run) reached its step-th instruction at now.
type step struct {
	now       int64
	proc, ord int
}

// program is a seeded random program. A proc's instructions come from an
// RNG seeded by (program seed, spawn index), and spawn indices and kill
// targets are resolved at run time, so two kernels produce the same
// transcript exactly when they interleave the procs the same way.
type program struct {
	k          kernel
	seed       int64
	procs      []*Proc
	transcript []step
}

const maxProcs = 48

func (pr *program) spawn(at int64) {
	if len(pr.procs) >= maxProcs {
		return
	}
	id := len(pr.procs)
	pr.procs = append(pr.procs, pr.k.goAt(at, func(p *Proc) { pr.body(p, id) }))
}

func (pr *program) body(p *Proc, id int) {
	k := pr.k
	rng := rand.New(rand.NewSource(pr.seed<<8 + int64(id)))
	n := 2 + rng.Intn(10)
	for i := 0; i <= n; i++ {
		pr.transcript = append(pr.transcript, step{k.clock(), id, i})
		if i == n {
			return
		}
		// Delays are tiny on purpose: most events tie on t and the order
		// rests on seq alone.
		switch op := rng.Intn(100); {
		case op < 30:
			k.sleep(p, int64(rng.Intn(4))-1)
		case op < 45:
			k.sleepUntil(p, k.clock()+int64(rng.Intn(6))-2)
		case op < 57:
			k.wait(p, rng.Intn(2))
		case op < 70:
			k.broadcast(rng.Intn(2))
		case op < 80:
			pr.spawn(k.clock())
		case op < 88:
			pr.spawn(k.clock() + int64(rng.Intn(5)))
		case op < 97:
			if victim := pr.procs[rng.Intn(len(pr.procs))]; victim != p {
				k.kill(victim)
			}
		default:
			k.stop()
		}
	}
}

// exec runs the program to quiescence: whenever run returns — a Stop, or
// nothing left but parked waiters — broadcast from outside and run
// again, until a run takes no step.
func (pr *program) exec() []step {
	rng := rand.New(rand.NewSource(pr.seed))
	for n := 1 + rng.Intn(6); n > 0; n-- {
		pr.spawn(int64(rng.Intn(3)))
	}
	for runs := 0; ; runs++ {
		steps := len(pr.transcript)
		pr.k.run()
		pr.transcript = append(pr.transcript, step{pr.k.clock(), -1, runs})
		if len(pr.transcript) == steps+1 {
			return pr.transcript
		}
		pr.k.broadcast(0)
		pr.k.broadcast(1)
	}
}

// TestOrderMatchesSchedulerLoop is the kernel's contract as a property:
// random programs of Sleep, SleepUntil, Cond.Wait and Broadcast, nested
// Go and GoAt, Kill, and Stop followed by Run again interleave under
// direct handoff exactly as under the scheduler loop it replaced.
func TestOrderMatchesSchedulerLoop(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		env := NewEnv(seed)
		got := (&program{seed: seed, k: &envKernel{env: env, conds: [2]*Cond{NewCond(env), NewCond(env)}}}).exec()
		want := (&program{seed: seed, k: &refKernel{sched: make(chan struct{})}}).exec()
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: transcripts (%d vs %d steps) diverge at %d:\n got %v\nwant %v",
				seed, len(got), len(want), i, got[i:min(i+8, len(got))], want[i:min(i+8, len(want))])
		}
	}
}

// TestGoexitInsideProc: a proc that leaves through runtime.Goexit (what
// t.Fatal does) hands control on from its deferred exit like one that
// returns — mid-run with peers still going, and as the very last proc,
// where the handoff goes to Run.
func TestGoexitInsideProc(t *testing.T) {
	env := NewEnv(1)
	peer := 0
	env.Go("quits-early", func(p *Proc) {
		p.Sleep(5)
		runtime.Goexit()
		t.Error("ran past Goexit")
	})
	env.Go("peer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(2)
			peer++
		}
	})
	quitter := env.Go("quits-last", func(p *Proc) {
		p.Sleep(100)
		runtime.Goexit()
	})
	env.Run()
	if peer != 10 || env.Now() != 100 {
		t.Fatalf("peer took %d of 10 steps, clock at %d; want 10 and 100", peer, env.Now())
	}
	if quitter.Alive() || env.running != 0 {
		t.Fatalf("after Run: quitter alive = %v, running = %d; want false and 0", quitter.Alive(), env.running)
	}
}

// TestKillNextEventOwnerAndCondWaiter: the killer's own yield is what
// pops the heap now, so it is the killer that must step over its
// victims' wake-ups — the victim owning the very next event, and one
// parked on a Cond that is then broadcast — without resuming them, and
// still wake the surviving waiter.
func TestKillNextEventOwnerAndCondWaiter(t *testing.T) {
	env := NewEnv(1)
	cond := NewCond(env)
	var ran []string
	next := env.Go("next", func(p *Proc) {
		p.Sleep(10) // due right after the killer's slice at t=9
		ran = append(ran, "next")
	})
	parked := env.Go("parked", func(p *Proc) {
		cond.Wait(p)
		ran = append(ran, "parked")
	})
	env.Go("survivor", func(p *Proc) {
		cond.Wait(p)
		ran = append(ran, "survivor")
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(9)
		if !env.Kill(next) || !env.Kill(parked) {
			t.Error("Kill of a live proc returned false")
		}
		cond.Broadcast()
		p.Sleep(5)
		ran = append(ran, "killer")
	})
	env.Run()
	if want := []string{"survivor", "killer"}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	if env.Now() != 14 || env.running != 0 {
		t.Fatalf("clock at %d with %d running; want 14 and 0", env.Now(), env.running)
	}
}

// TestSelfResumeIsNoHandoff: a proc whose own event is next keeps
// running on its goroutine — zero switches for a lone sleeper — while
// two procs taking turns switch once per yield and once when the first
// of them exits.
func TestSelfResumeIsNoHandoff(t *testing.T) {
	const n = 1000
	sleeper := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	}
	env := NewEnv(1)
	env.Go("lone", sleeper)
	env.Run()
	if env.Now() != n || env.handoffs != 0 {
		t.Fatalf("lone proc: clock at %d after %d handoffs; want %d and 0", env.Now(), env.handoffs, n)
	}
	env = NewEnv(1)
	env.Go("a", sleeper)
	env.Go("b", sleeper)
	env.Run()
	if env.handoffs != 2*n+1 {
		t.Fatalf("two procs in turn: %d handoffs; want %d", env.handoffs, 2*n+1)
	}
}

// TestStopThenRunContinues: Stop takes effect when the stopping proc
// next yields — that proc hands control to Run rather than to the next
// event's owner — and everything pending stays pending for the next Run.
// A Stop with no Run in progress is spent by the next Run alone.
func TestStopThenRunContinues(t *testing.T) {
	env := NewEnv(1)
	var ran []string
	env.Go("a", func(p *Proc) {
		p.Sleep(10)
		env.Stop()
		ran = append(ran, "a-stopped")
		p.Sleep(10)
		ran = append(ran, "a@20")
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(15)
		ran = append(ran, "b@15")
	})
	env.Run()
	if want := []string{"a-stopped"}; !slices.Equal(ran, want) || env.Now() != 10 {
		t.Fatalf("first Run: ran %v, clock at %d; want %v and 10", ran, env.Now(), want)
	}
	env.Stop()
	env.Run()
	if len(ran) != 1 || env.Now() != 10 {
		t.Fatalf("Run after a Stop from outside ran %v to t=%d; want nothing", ran[1:], env.Now())
	}
	env.Run()
	if want := []string{"a-stopped", "b@15", "a@20"}; !slices.Equal(ran, want) || env.Now() != 20 {
		t.Fatalf("resumed Run: ran %v, clock at %d; want %v and 20", ran, env.Now(), want)
	}
}

// BenchmarkSwitch16 is the shape of the benchmark's sim.switch_host_ns
// probe: 16 procs that each sleep one tick at a time, so every yield
// hands off to another proc. One op is one yield.
func BenchmarkSwitch16(b *testing.B) {
	env := NewEnv(1)
	for c := 0; c < 16; c++ {
		env.Go("ping", func(p *Proc) {
			for i := 0; i < b.N/16; i++ {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkSelfResume is a lone proc sleeping: each yield pops its own
// event and returns without leaving the goroutine.
func BenchmarkSelfResume(b *testing.B) {
	env := NewEnv(1)
	env.Go("lone", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
