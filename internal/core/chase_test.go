package core

import (
	"bytes"
	"testing"

	"ditto/internal/exec"
	"ditto/internal/sim"
)

// hookedPlan runs a setPlan with a callback ahead of every Step (handed
// the state the plan is about to emit from), so a test can slip another
// client's operations between two of its stages.
type hookedPlan struct {
	*setPlan
	before func(st int)
}

func (h hookedPlan) Step(eager bool) []exec.Verb {
	h.before(h.st)
	return h.setPlan.Step(eager)
}

// TestChaseMeetsAnotherKey pins the chase's key test. An update of K
// loses its publish CAS to a concurrent update and chases the winner's
// image — but before the chase READ lands, K is deleted and the slot
// re-pointed at X, a different key of the same fingerprint. Whatever the
// READ returns is not K's live image: the plan must end setCASLost with
// its staged block freed, and leave X alone.
func TestChaseMeetsAnotherKey(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 1000)
	env.Go("c", func(p *sim.Proc) {
		c, o := cl.NewClient(p), cl.NewClient(p)
		k, x, _, _ := walkKeys(t, cl)
		c.Set(k, value(1))
		used := cl.MN.UsedBytes // one object; X's is the same size

		pl := c.sets.get().reset(c, k, value(2))
		fired := 0
		c.runner.Serial.Run(hookedPlan{pl, func(st int) {
			switch {
			case st == sWrite && fired == 0: // WRITE and CAS are one group: ahead of both
				fired++
				o.Set(k, value(3)) // moves K: our CAS loses to this image
			case st == sChase && fired == 1:
				fired++
				o.Delete(k)
				o.Set(x, value(4)) // the first free slot of the bucket: K's
			}
		}})
		if fired != 2 || pl.chases == 0 {
			t.Fatalf("interleaving did not happen: %d hooks fired, %d chases", fired, pl.chases)
		}
		if at := findSlot(t, c, x); at.Addr != pl.updSlot.Addr {
			t.Fatalf("X landed in slot %#x, the chased slot is %#x", at.Addr, pl.updSlot.Addr)
		}
		if pl.outcome != setCASLost {
			t.Errorf("outcome = %d, want setCASLost", pl.outcome)
		}
		if cl.MN.UsedBytes != used {
			t.Errorf("heap holds %d bytes, want X's %d: the staged block leaked", cl.MN.UsedBytes, used)
		}
		if v, ok := c.Get(x); !ok || !bytes.Equal(v, value(4)) {
			t.Errorf("X damaged by the chase: ok=%v", ok)
		}
		if _, ok := c.Get(k); ok {
			t.Error("deleted K resurfaced")
		}
		c.sets.put(pl)
	})
	env.Run()
}

// TestChaseSettlesTheChasedCopy pins whose bytes move when a chase wins:
// tenant 1's update of K (owned by tenant 3) loses its CAS to tenant 2's,
// chases that image and supersedes it — so tenant 3 was credited by
// tenant 2's update, tenant 2 is credited by the chase, and tenant 1 is
// charged. When the chased copy's lease had already lapsed the update
// finishes as an insert would (fresh slot metadata): replacing a dead
// object is not an access to it.
func TestChaseSettlesTheChasedCopy(t *testing.T) {
	for _, expired := range []bool{false, true} {
		name := map[bool]string{false: "cross-tenant", true: "expired lease"}[expired]
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv(1)
			cl := newTestCluster(env, 1000)
			cl.SetTenantQuota(1, 1<<40) // tenant mode on
			env.Go("c", func(p *sim.Proc) {
				a, b, owner := cl.NewClient(p), cl.NewClient(p), cl.NewClient(p)
				a.BindTenant(1)
				b.BindTenant(2)
				owner.BindTenant(3)
				k := key(1)
				owner.Set(k, value(0))
				p.Sleep(sim.Millisecond)
				size, inserted := cl.TenantUsage(3), findSlot(t, a, k).InsertTs

				pl := a.sets.get().reset(a, k, value(1))
				fired := false
				a.runner.Serial.Run(hookedPlan{pl, func(st int) {
					if st == sWrite && !fired { // ahead of the WRITE+CAS group
						fired = true
						if expired {
							b.nextExpiry = 1 // a lease that lapsed long ago
						}
						b.Set(k, value(2))
						b.nextExpiry = 0
					}
				}})
				if pl.outcome != setDone || pl.chases != 1 {
					t.Fatalf("outcome %d after %d chases, want setDone after 1", pl.outcome, pl.chases)
				}
				for tenant, want := range map[TenantID]int64{1: size, 2: 0, 3: 0} {
					if got := cl.TenantUsage(tenant); got != want {
						t.Errorf("tenant %d holds %d bytes, want %d", tenant, got, want)
					}
				}
				if int64(cl.MN.UsedBytes) != size {
					t.Errorf("heap holds %d bytes, want the one object's %d", cl.MN.UsedBytes, size)
				}
				if v, ok := a.Get(k); !ok || !bytes.Equal(v, value(1)) {
					t.Errorf("K does not hold the chaser's value: ok=%v", ok)
				}
				if fresh := findSlot(t, a, k).InsertTs != inserted; fresh != expired {
					t.Errorf("slot metadata reinitialized = %v, want %v", fresh, expired)
				}
				a.sets.put(pl)
			})
			env.Run()
		})
	}
}
