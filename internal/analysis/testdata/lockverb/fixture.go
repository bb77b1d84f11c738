// Fixture for the lockverb analyzer: sync mutexes held across blocking
// verb issue. The analyzer sweeps every package, so the fixture's
// import path does not matter.

package lockverb

import (
	"sync"

	"ditto/internal/exec"
	"ditto/internal/rdma"
)

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	ep *rdma.Endpoint
}

func (g *guarded) verbUnderLock(addr uint64) []byte {
	g.mu.Lock()
	v := g.ep.Read(addr, 8) // want `rdma\.Endpoint\.Read issued while holding mutex g\.mu`
	g.mu.Unlock()
	return v
}

func (g *guarded) verbUnderDeferredUnlock(addr uint64) []byte {
	g.mu.Lock()
	defer g.mu.Unlock()       // pins g.mu held for the rest of the function
	return g.ep.Read(addr, 8) // want `rdma\.Endpoint\.Read issued while holding mutex g\.mu`
}

func (g *guarded) execUnderRLock(r *exec.Runner, plans []exec.Plan) {
	g.rw.RLock()
	r.RunPlans(exec.Serial, plans) // want `exec\.Runner\.RunPlans issued while holding mutex g\.rw`
	g.rw.RUnlock()
}

func (g *guarded) releasedBeforeVerb(addr uint64) []byte {
	g.mu.Lock()
	g.mu.Unlock()
	return g.ep.Read(addr, 8) // released before the verb: no finding
}

func (g *guarded) lockAroundLocalWork(addr uint64) []byte {
	v := g.ep.Read(addr, 8) // no mutex held yet: no finding
	g.mu.Lock()
	addr++ // local work only under the mutex
	g.mu.Unlock()
	return v
}

func (g *guarded) pooledRunnerUnderLock(r *exec.Runner, p exec.Plan, plans []exec.Plan) {
	g.mu.Lock()
	r.RunOne(exec.Serial, p)         // want `exec\.Runner\.RunOne issued while holding mutex g\.mu`
	r.RunPlans(exec.Doorbell, plans) // want `exec\.Runner\.RunPlans issued while holding mutex g\.mu`
	r.Serial.Run(p)                  // want `exec\.SerialRunner\.Run issued while holding mutex g\.mu`
	r.Doorbell.Run(plans)            // want `exec\.DoorbellRunner\.Run issued while holding mutex g\.mu`
	g.mu.Unlock()
	r.RunOne(exec.Serial, p) // released: no finding
}
