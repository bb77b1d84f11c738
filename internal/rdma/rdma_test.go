package rdma

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ditto/internal/sim"
)

func testNode(env *sim.Env) *Node {
	cfg := DefaultConfig()
	return NewNode(env, 1<<20, cfg)
}

func TestReadWriteRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		data := []byte("hello disaggregated world")
		ep.Write(64, data)
		got := ep.Read(64, len(data))
		if !bytes.Equal(got, data) {
			t.Errorf("read back %q", got)
		}
	})
	env.Run()
	if node.Stats.Reads != 1 || node.Stats.Writes != 1 {
		t.Errorf("stats = %+v", node.Stats)
	}
}

func TestVerbLatencyIsRTTPlusService(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		start := p.Now()
		ep.Read(0, 8)
		lat := p.Now() - start
		want := node.cfg.RTT + node.msgSvc(8)
		if lat != want {
			t.Errorf("latency = %d, want %d", lat, want)
		}
	})
	env.Run()
}

func TestCASSemantics(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		if old, ok := ep.CAS(128, 0, 42); !ok || old != 0 {
			t.Errorf("first CAS: old=%d ok=%v", old, ok)
		}
		if old, ok := ep.CAS(128, 0, 7); ok || old != 42 {
			t.Errorf("failing CAS: old=%d ok=%v", old, ok)
		}
		if old, ok := ep.CAS(128, 42, 7); !ok || old != 42 {
			t.Errorf("second CAS: old=%d ok=%v", old, ok)
		}
		if v := binary.LittleEndian.Uint64(node.mem[128:]); v != 7 {
			t.Errorf("mem = %d", v)
		}
	})
	env.Run()
}

func TestCASContentionOnlyOneWins(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	wins := 0
	for i := 0; i < 8; i++ {
		env.Go("c", func(p *sim.Proc) {
			ep := NewEndpoint(node, p)
			if _, ok := ep.CAS(0, 0, uint64(p.ID())+1); ok {
				wins++
			}
		})
	}
	env.Run()
	if wins != 1 {
		t.Fatalf("%d CASes won, want exactly 1", wins)
	}
}

func TestFAAIsAtomicAcrossClients(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	const perClient = 100
	for i := 0; i < 8; i++ {
		env.Go("c", func(p *sim.Proc) {
			ep := NewEndpoint(node, p)
			for k := 0; k < perClient; k++ {
				ep.FAA(8, 1)
			}
		})
	}
	env.Run()
	if v := node.Uint64At(8); v != 8*perClient {
		t.Fatalf("counter = %d, want %d", v, 8*perClient)
	}
}

func TestFAAReturnsPreviousValue(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		if prev := ep.FAA(16, 5); prev != 0 {
			t.Errorf("prev = %d", prev)
		}
		if prev := ep.FAA(16, 3); prev != 5 {
			t.Errorf("prev = %d", prev)
		}
	})
	env.Run()
}

func TestAsyncWriteDoesNotBlock(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		start := p.Now()
		ep.WriteAsync(0, make([]byte, 64))
		if p.Now() != start {
			t.Error("async write advanced caller time")
		}
	})
	env.Run()
	if node.Stats.AsyncOps != 1 {
		t.Errorf("async ops = %d", node.Stats.AsyncOps)
	}
}

func TestRPCExecutesHandlerAndCostsCPU(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	node.Handle(9, func(payload []byte) []byte {
		return append([]byte("ok:"), payload...)
	})
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		start := p.Now()
		reply := ep.RPC(9, []byte("ping"))
		if string(reply) != "ok:ping" {
			t.Errorf("reply = %q", reply)
		}
		if p.Now()-start < node.cfg.RTT+node.cfg.RPCSvc {
			t.Errorf("RPC too fast: %d", p.Now()-start)
		}
	})
	env.Run()
	if node.CPU().Busy == 0 {
		t.Error("RPC consumed no MN CPU")
	}
	if node.Stats.RPCs != 1 {
		t.Errorf("rpc count = %d", node.Stats.RPCs)
	}
}

// TestPostRPCOverlapsTheRoundTrip: a posted request runs its handler and
// takes its place in the MN CPU's queue at post time, costs what an RPC
// costs, and its issuer pays only the part of the round trip it has not
// already spent elsewhere.
func TestPostRPCOverlapsTheRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	served := 0
	node.Handle(9, func(payload []byte) []byte {
		served++
		return append([]byte("ok:"), payload...)
	})
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		start := p.Now()
		ep.RPC(9, []byte("ping"))
		rpc := p.Now() - start

		start = p.Now()
		r := ep.PostRPC(9, []byte("ping"))
		if p.Now() != start || served != 2 {
			t.Errorf("PostRPC took %dns and the handler ran %d times, want 0 and 2", p.Now()-start, served)
		}
		p.Sleep(rpc / 2)
		if reply := r.Wait(); string(reply) != "ok:ping" {
			t.Errorf("reply = %q", reply)
		}
		if got := p.Now() - start; got != rpc {
			t.Errorf("post + half the round trip elsewhere + Wait = %dns, want the RPC's %dns", got, rpc)
		}

		r = ep.PostRPC(9, nil)
		p.Sleep(2 * rpc)
		start = p.Now()
		r.Wait()
		if p.Now() != start {
			t.Errorf("Wait on an arrived reply took %dns", p.Now()-start)
		}

		r = ep.PostRPC(9, nil)
		node.Fail()
		if err := CatchUnreachable(func() { r.Wait() }); !IsUnreachable(err) {
			t.Errorf("Wait on a failed node: %v, want NodeUnreachableError", err)
		}
	})
	env.Run()
	if node.Stats.RPCs != 4 {
		t.Errorf("rpc count = %d, want 4", node.Stats.RPCs)
	}
}

func TestRPCThroughputBoundedByCPU(t *testing.T) {
	// With 1 MN core at RPCSvc=1500ns, aggregate RPC throughput must
	// saturate near 1/1500ns ≈ 0.67 Mops regardless of client count.
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	node := NewNode(env, 1<<16, cfg)
	node.Handle(1, func([]byte) []byte { return nil })
	const clients, opsEach = 16, 200
	for i := 0; i < clients; i++ {
		env.Go("c", func(p *sim.Proc) {
			ep := NewEndpoint(node, p)
			for k := 0; k < opsEach; k++ {
				ep.RPC(1, nil)
			}
		})
	}
	env.Run()
	elapsed := env.Now()
	opsPerSec := float64(clients*opsEach) / (float64(elapsed) / 1e9)
	wantMax := 1e9 / float64(cfg.RPCSvc)
	if opsPerSec > wantMax*1.05 {
		t.Fatalf("RPC throughput %.0f ops/s exceeds CPU bound %.0f", opsPerSec, wantMax)
	}
	if opsPerSec < wantMax*0.8 {
		t.Fatalf("RPC throughput %.0f ops/s far below CPU bound %.0f", opsPerSec, wantMax)
	}
}

func TestOneSidedThroughputBoundedByNIC(t *testing.T) {
	// One-sided verbs must saturate at the RNIC message rate, far above the
	// CPU-bound RPC rate — the core asymmetry the paper exploits.
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.ByteSvcNs = 0
	node := NewNode(env, 1<<16, cfg)
	// Each synchronous client sustains at most 1/RTT = 0.5 Mops, so we need
	// well over RTT/MsgSvc = 80 clients of offered load to saturate the NIC.
	const clients, opsEach = 128, 200
	for i := 0; i < clients; i++ {
		env.Go("c", func(p *sim.Proc) {
			ep := NewEndpoint(node, p)
			for k := 0; k < opsEach; k++ {
				ep.Read(0, 8)
			}
		})
	}
	env.Run()
	opsPerSec := float64(clients*opsEach) / (float64(env.Now()) / 1e9)
	nicBound := 1e9 / float64(cfg.MsgSvc)
	if opsPerSec > nicBound*1.05 {
		t.Fatalf("throughput %.0f above NIC bound %.0f", opsPerSec, nicBound)
	}
	if opsPerSec < nicBound*0.7 {
		t.Fatalf("throughput %.0f well below NIC bound %.0f (not saturating)", opsPerSec, nicBound)
	}
}

func TestScalingMNCoresScalesRPCs(t *testing.T) {
	run := func(cores int) float64 {
		env := sim.NewEnv(1)
		cfg := DefaultConfig()
		cfg.CPUCores = cores
		node := NewNode(env, 1<<16, cfg)
		node.Handle(1, func([]byte) []byte { return nil })
		const clients, opsEach = 32, 100
		for i := 0; i < clients; i++ {
			env.Go("c", func(p *sim.Proc) {
				ep := NewEndpoint(node, p)
				for k := 0; k < opsEach; k++ {
					ep.RPC(1, nil)
				}
			})
		}
		env.Run()
		return float64(clients*opsEach) / (float64(env.Now()) / 1e9)
	}
	t1, t4 := run(1), run(4)
	if t4 < 3*t1 {
		t.Fatalf("4 cores only %.1fx faster than 1 core", t4/t1)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	env := sim.NewEnv(1)
	node := NewNode(env, 128, DefaultConfig())
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		defer func() {
			if recover() == nil {
				t.Error("no panic on out-of-bounds read")
			}
		}()
		ep.Read(120, 16)
	})
	env.Run()
}

func TestDuplicateHandlerPanics(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	node.Handle(3, func([]byte) []byte { return nil })
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate opcode")
		}
	}()
	node.Handle(3, func([]byte) []byte { return nil })
}

func TestServerSideWordAccess(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	node.PutUint64At(256, 0xdeadbeef)
	if v := node.Uint64At(256); v != 0xdeadbeef {
		t.Fatalf("got %x", v)
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{Reads: 1, Writes: 2, CASes: 3, FAAs: 4, RPCs: 5}
	if s.Total() != 15 {
		t.Fatalf("total = %d", s.Total())
	}
}

func TestPostBatchSemantics(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		ep.Write(0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		node.PutUint64At(64, 10)
		res := ep.PostBatch([]BatchOp{
			{Kind: BatchWrite, Addr: 128, Data: []byte("doorbell")},
			{Kind: BatchRead, Addr: 128, Len: 8}, // posted after the write: must see it
			{Kind: BatchCAS, Addr: 64, Expect: 10, Swap: 20},
			{Kind: BatchCAS, Addr: 64, Expect: 10, Swap: 30}, // stale expect: must fail
			{Kind: BatchFAA, Addr: 64, Delta: 2},
			{Kind: BatchRead, Addr: 0, Len: 8},
		})
		if !bytes.Equal(res[1].Data, []byte("doorbell")) {
			t.Errorf("in-batch read after write = %q", res[1].Data)
		}
		if !res[2].Swapped || res[2].Old != 10 {
			t.Errorf("first CAS: %+v", res[2])
		}
		if res[3].Swapped || res[3].Old != 20 {
			t.Errorf("second CAS should observe the first: %+v", res[3])
		}
		if res[4].Old != 20 {
			t.Errorf("FAA old = %d, want 20", res[4].Old)
		}
		if v := node.Uint64At(64); v != 22 {
			t.Errorf("counter = %d, want 22", v)
		}
		if !bytes.Equal(res[5].Data, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
			t.Errorf("read = %v", res[5].Data)
		}
	})
	env.Run()
	if node.Stats.DoorbellBatches != 1 || node.Stats.BatchedVerbs != 6 {
		t.Errorf("batch stats = %+v", node.Stats)
	}
	// Batched verbs are also counted per kind (1 plain write + 1 batch write).
	if node.Stats.Reads != 2 || node.Stats.Writes != 2 || node.Stats.CASes != 2 || node.Stats.FAAs != 1 {
		t.Errorf("verb stats = %+v", node.Stats)
	}
}

// TestPostBatchOverlapsRoundTrips pins the doorbell cost model: N batched
// reads cost N message-service times plus ONE round trip, against
// N x (service + RTT) when issued synchronously one by one.
func TestPostBatchOverlapsRoundTrips(t *testing.T) {
	const n = 32
	env := sim.NewEnv(1)
	node := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		ops := make([]BatchOp, n)
		for i := range ops {
			ops[i] = BatchOp{Kind: BatchRead, Addr: uint64(i * 8), Len: 8}
		}
		start := p.Now()
		ep.PostBatch(ops)
		batched := p.Now() - start

		start = p.Now()
		for i := 0; i < n; i++ {
			ep.Read(uint64(i*8), 8)
		}
		sequential := p.Now() - start

		wantBatched := int64(n)*node.msgSvc(8) + node.cfg.RTT
		wantSeq := int64(n) * (node.msgSvc(8) + node.cfg.RTT)
		if batched != wantBatched {
			t.Errorf("batched latency = %d, want %d", batched, wantBatched)
		}
		if sequential != wantSeq {
			t.Errorf("sequential latency = %d, want %d", sequential, wantSeq)
		}
		if batched*3 > sequential {
			t.Errorf("batching should overlap round trips: batched=%d sequential=%d", batched, sequential)
		}
	})
	env.Run()
}

func TestPostBatchEmpty(t *testing.T) {
	env := sim.NewEnv(1)
	node := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := NewEndpoint(node, p)
		if res := ep.PostBatch(nil); res != nil {
			t.Errorf("empty batch returned %v", res)
		}
	})
	env.Run()
	if node.Stats.DoorbellBatches != 0 {
		t.Errorf("empty batch counted: %+v", node.Stats)
	}
}
