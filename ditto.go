// Package ditto is the public API of this reproduction of "Ditto: An
// Elastic and Adaptive Memory-Disaggregated Caching System" (SOSP 2023).
//
// Ditto is an in-memory cache for disaggregated memory (DM): clients in
// the compute pool execute Get/Set directly against the memory pool with
// one-sided verbs (no server CPU on the data path), hotness metadata lives
// in the hash-table slots so eviction candidates can be sampled with a
// single READ, and multiple caching algorithms run simultaneously as
// experts of a regret-minimization bandit that adapts the eviction policy
// to the workload and to elastic resource changes. Multi-key batches
// (MGet/MSet) post each pipeline stage as one RNIC doorbell so verb
// round trips overlap instead of serializing on the RTT.
//
// Elasticity has two memory axes here: a node's heap can grow and shrink
// in place (Cluster.GrowCache/ShrinkCache, no migration), and a multi-MN
// pool can gain or lose whole memory nodes at runtime
// (MultiCluster.AddNode/RemoveNode) with live consistent-hash resharding
// that migrates only the keys whose owner changed.
//
// Because RDMA hardware is not assumed, the fabric is a deterministic
// virtual-time simulation (see internal/sim and internal/rdma): every verb
// costs its round trip and queues on the modelled RNIC/CPU resources, so
// systems-level behaviour (who saturates, how elasticity plays out) is
// preserved while everything runs in-process.
//
// Quick start:
//
//	env := ditto.NewEnv(42)
//	cluster := ditto.NewCluster(env, ditto.DefaultOptions(100_000, 64<<20))
//	env.Go("app", func(p *ditto.Proc) {
//		c := cluster.NewClient(p)
//		c.Set([]byte("hello"), []byte("world"))
//		v, ok := c.Get([]byte("hello"))
//		_ = v
//		_ = ok
//	})
//	env.Run()
//
// See examples/ for runnable programs and internal/bench for the full
// evaluation harness reproducing every figure and table of the paper.
package ditto

import (
	"ditto/internal/cachealgo"
	"ditto/internal/core"
	"ditto/internal/fairness"
	"ditto/internal/sim"
)

// Env is the virtual-time environment all clients run in.
type Env = sim.Env

// Proc is a process (client thread) in the environment.
type Proc = sim.Proc

// NewEnv creates a deterministic environment from a seed.
func NewEnv(seed int64) *Env { return sim.NewEnv(seed) }

// Cluster is a Ditto deployment: a memory pool plus shared configuration.
type Cluster = core.Cluster

// Client is a Ditto cache client bound to one process.
type Client = core.Client

// Options configures a cluster; see DefaultOptions.
type Options = core.Options

// Stats are per-client operation counters.
type Stats = core.Stats

// KV is one key/value pair of an MSet batch.
//
// Multi-key traffic should prefer Client.MGet / MSet / MDelete (and
// their MultiClient counterparts) over per-key loops: the batched
// operations run the same verb plans as Get/Set/Delete, posting each
// stage's verbs with a single RNIC doorbell so the round trips overlap —
// an all-hit MGet costs two doorbell batches total (bucket READs, then
// object READs) instead of two round trips per key, while returning
// exactly what per-key operations would.
type KV = core.KV

// NewCluster builds a Ditto deployment inside env.
func NewCluster(env *Env, opts Options) *Cluster { return core.NewCluster(env, opts) }

// DefaultOptions returns the paper's default parameterization (LRU+LFU
// experts, 5 samples, 10 MB FC cache with threshold 10, learning rate 0.1,
// weight-update batch 100).
func DefaultOptions(expectedObjects, cacheBytes int) Options {
	return core.DefaultOptions(expectedObjects, cacheBytes)
}

// Algorithms returns the names of the twelve integrated caching
// algorithms, usable in Options.Experts.
func Algorithms() []string { return cachealgo.Names() }

// MultiCluster is a Ditto deployment spanning several memory nodes
// (§5.1's multi-MN compatibility note). Keys are partitioned by a
// consistent-hash ring, and the pool is elastic at node granularity:
// AddNode and RemoveNode reshape it at runtime, migrating only the keys
// whose owner changed through a background reshard that keeps every key
// readable (Gets are forwarded to a key's old owner until its copy has
// moved). Use Resharding/WaitReshard to observe migration progress, and
// GrowCache/ShrinkCache for pool-wide byte-granular elasticity.
//
// EnableHotKeyReplication relieves zipfian skew: keys whose hit
// frequency crosses a threshold are copied to their ring-successor
// nodes and their reads spread across all copies, while writes stay
// linearizable — under a per-key lock, a write first invalidates the
// replica copies, then publishes on the primary, then re-materializes
// them, so a spreadable replica only ever holds the current value or
// nothing. Call it before creating clients.
type MultiCluster = core.MultiCluster

// MultiClient routes operations to the memory node owning each key and
// serves the forwarding window during live reshards.
type MultiClient = core.MultiClient

// NewMultiCluster builds a deployment over n memory nodes; opts describes
// the pool's aggregate capacity. Nodes added later with AddNode receive
// the same per-node provisioning.
func NewMultiCluster(env *Env, n int, opts Options) *MultiCluster {
	return core.NewMultiCluster(env, n, opts)
}

// FairClient wraps a Client with FairRide-style expected delaying so
// co-located tenants cannot free-ride on each other's cached objects
// (§4.4's fairness discussion).
type FairClient = fairness.Client

// NewFairClient wraps c for the given tenant; missCost is the virtual-time
// penalty equivalent to a backing-store fetch.
func NewFairClient(c *Client, tenant byte, missCost int64) *FairClient {
	return fairness.New(c, tenant, missCost)
}

// Virtual-time unit constants for Proc.Sleep and friends.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)
