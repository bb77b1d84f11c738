package core

import (
	"testing"

	"ditto/internal/hashtable"
	"ditto/internal/sim"
)

// walkKeys picks the keys the key-walk budget table needs out of one
// table layout: K and a collider X sharing K's main bucket AND
// fingerprint, a bucketful of fillers sharing K's main bucket under
// other fingerprints, and a key M whose buckets nothing else touches.
func walkKeys(t *testing.T, cl *Cluster) (k, x, m []byte, fillers [][]byte) {
	t.Helper()
	type bfp struct {
		b  int
		fp byte
	}
	first := map[bfp]int{}
	ki, xi := -1, -1
	for i := 0; i < 200000 && ki < 0; i++ {
		kh := hashtable.KeyHash(key(i))
		at := bfp{cl.Layout.MainBucket(kh), hashtable.Fingerprint(kh)}
		if j, ok := first[at]; ok {
			xi, ki = j, i
		} else {
			first[at] = i
		}
	}
	if ki < 0 {
		t.Fatal("no same-bucket same-fingerprint key pair in 200000 keys")
	}
	k, x = key(ki), key(xi)
	kh := hashtable.KeyHash(k)
	main, backup, fp := cl.Layout.MainBucket(kh), cl.Layout.BackupBucket(kh), hashtable.Fingerprint(kh)
	for i := 0; i < 200000 && (len(fillers) < cl.Options().SlotsPerBucket || m == nil); i++ {
		h := hashtable.KeyHash(key(i))
		mb, bb := cl.Layout.MainBucket(h), cl.Layout.BackupBucket(h)
		switch {
		case mb == main && hashtable.Fingerprint(h) != fp && len(fillers) < cl.Options().SlotsPerBucket:
			fillers = append(fillers, key(i))
		case m == nil && mb != main && mb != backup && bb != main && bb != backup:
			m = key(i)
		}
	}
	if len(fillers) < cl.Options().SlotsPerBucket || m == nil {
		t.Fatal("could not fill K's main bucket")
	}
	return k, x, m, fillers
}

// TestKeyWalkVerbBudget pins the verb budget of the lookup Get, Set and
// Delete share (§4.1), traversed serially: which READs each pays for a
// key in its main bucket, a key that overflowed to its backup bucket, a
// fingerprint collision ahead of the key in scan order, and a miss — and
// that the WRITEs and CASes on top are each operation's own. Counts are
// the memory node's (async WRITEs included; FAAs, batched by the FC
// cache, and allocator RPCs are not part of the walk).
func TestKeyWalkVerbBudget(t *testing.T) {
	type verbs struct{ reads, writes, cas int64 }
	cases := []struct {
		name          string
		ahead         string // what is stored ahead of K: "", "collider" or "fillers"
		miss          bool
		get, set, del verbs
	}{
		// Get: bucket + object READ, async last_ts WRITE.
		// Set (update): the same walk, then object WRITE + publish CAS +
		// async last_ts WRITE. Delete: the walk runs BOTH buckets to
		// completion (a migration window can leave two copies), one CAS.
		{"main-bucket hit", "", false, verbs{2, 1, 0}, verbs{2, 2, 1}, verbs{3, 0, 1}},
		// One more READ each: the main bucket has no fingerprint match.
		{"backup-bucket hit", "fillers", false, verbs{3, 1, 0}, verbs{3, 2, 1}, verbs{3, 0, 1}},
		// One more READ each: the collider's object is read and rejected.
		{"fingerprint collision before the match", "collider", false, verbs{3, 1, 0}, verbs{3, 2, 1}, verbs{4, 0, 1}},
		// Get and Delete read both buckets and no object; Set inserts
		// into the first reclaimable slot of the main bucket (object
		// WRITE + async slot-metadata WRITE).
		{"miss", "", true, verbs{2, 0, 0}, verbs{1, 2, 1}, verbs{2, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			cl := newTestCluster(env, 1000)
			env.Go("c", func(p *sim.Proc) {
				c := cl.NewClient(p)
				k, x, m, fillers := walkKeys(t, cl)
				// Slots fill in scan order, so what is stored first is
				// scanned first: the collider X sits ahead of K in the main
				// bucket; a bucketful of fillers pushes K into its backup
				// bucket.
				ahead := map[string][][]byte{"collider": {x}, "fillers": fillers}[tc.ahead]
				for _, f := range ahead {
					c.Set(f, value(2))
				}
				c.Set(k, value(1))
				kh := hashtable.KeyHash(k)
				if overflowed := !spillSlot(c, kh, cl.Layout.MainBucket(kh)); overflowed != (tc.ahead == "fillers") {
					t.Fatalf("K overflowed to its backup bucket = %v", overflowed)
				}
				target := k
				if tc.miss {
					target = m
				}
				measure := func(op string, want verbs, f func()) {
					s0 := cl.MN.Node.Stats
					f()
					s1 := cl.MN.Node.Stats
					got := verbs{s1.Reads - s0.Reads, s1.Writes - s0.Writes, s1.CASes - s0.CASes}
					if got != want {
						t.Errorf("%s: %+v, want %+v", op, got, want)
					}
				}
				measure("Get", tc.get, func() {
					if _, ok := c.Get(target); ok == tc.miss {
						t.Errorf("Get hit = %v", ok)
					}
				})
				measure("Set", tc.set, func() { c.Set(target, value(4)) })
				if tc.miss {
					// The Set above inserted the miss key: take it out again
					// so the measured Delete misses too.
					c.Delete(target)
				}
				measure("Delete", tc.del, func() {
					if ok := c.Delete(target); ok == tc.miss {
						t.Errorf("Delete = %v", ok)
					}
				})
			})
			env.Run()
		})
	}
}
