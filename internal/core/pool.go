package core

// Plan pooling: the zero-allocation hot path.
//
// Every Get/Set/Delete attempt used to allocate its plan object, its
// per-stage verb group, the READ buffers the verbs delivered into, and
// the decoded-slot scratch — all of it dead the moment the operation
// returned. Each client now keeps one free list per plan type (planPool)
// and reuses every buffer a finished plan owns. The lifecycle is
//
//	get → reset → run → put         (c.gets.get().reset(c, key) … c.gets.put(pl))
//
// with two rules the correctness of buffer reuse hangs on:
//
//  1. A plan is put back only after the driver has consumed everything
//     that may alias its buffers — the decoded value views, the scanned
//     slots, the history matches. Under doorbell execution an identical
//     READ is issued once and fanned out, so one plan's result can alias
//     ANOTHER plan's buffer — of the same endpoint, so of the same
//     client; the batched driver therefore puts a client's plans back
//     only after all of that client's outputs of the pass are consumed.
//  2. reset draws a plan's randomness in the same order a fresh plan
//     would (see evictPlan.reset), so pooling is invisible to the
//     deterministic simulation.
//
// A plan that is never put back (a driver unwound by a panic that is not
// a node failure — those the batched driver survives, and unstages — or
// the resharder's migrate plans) is simply garbage: the pool holds no
// reference to plans in flight.

// planPool is a free list of finished plans of one type. get hands out a
// recycled plan — or a zero one on a miss, pool growth that amortizes to
// nothing at steady state — in unspecified state: the caller resets it.
type planPool[T any] struct{ free []*T }

func (p *planPool[T]) get() *T {
	n := len(p.free)
	if n == 0 {
		return new(T)
	}
	pl := p.free[n-1]
	p.free = p.free[:n-1]
	return pl
}

func (p *planPool[T]) put(pl *T) { p.free = append(p.free, pl) }

// putAll puts a driver's list of finished plans back and returns it emptied.
func (p *planPool[T]) putAll(pls []*T) []*T {
	p.free = append(p.free, pls...)
	return pls[:0]
}

// grow returns buf resized to n bytes, reusing its capacity when it
// suffices. The contents are unspecified — callers must fully overwrite
// (READ delivery does) or clear the returned slice.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// bufAt returns a pointer to the i-th buffer of a grow-only buffer
// list, extending the list as needed. Plans use one list entry per verb
// index so concurrent in-flight READs of one stage never share a
// delivery buffer.
func bufAt(bufs *[][]byte, i int) *[]byte {
	for len(*bufs) <= i {
		*bufs = append(*bufs, nil)
	}
	return &(*bufs)[i]
}
