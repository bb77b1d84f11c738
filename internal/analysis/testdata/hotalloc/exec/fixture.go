// Fixture for the hotalloc analyzer, executor side: loaded by
// RunFixture under the import path ditto/internal/exec, so methods on
// Runner, SerialRunner, and DoorbellRunner are swept — and free
// functions (verb issue, helpers) are not.

package exec

type Plan interface{ Step() []int }

type Result struct{ Old uint64 }

type SerialRunner struct {
	free []*frame
}

// frame mirrors the serial runner's per-nesting-depth post scratch.
type frame struct {
	ops []uint64
	res []Result
}

func (r *SerialRunner) Run(p Plan) {
	var f *frame
	if n := len(r.free); n > 0 {
		f, r.free = r.free[n-1], r.free[:n-1] // free-list pop: no finding
	} else {
		//dittolint:allow hotalloc (free-list miss: one frame per nesting depth, amortized to zero at steady state)
		f = new(frame)
	}
	r.post(f, p.Step())
	r.free = append(r.free, f)
}

// post is swept with the run loop it serves: a multi-verb group posts
// from the frame's retained scratch.
func (r *SerialRunner) post(f *frame, vs []int) {
	f.ops = f.ops[:0]                   // retained-scratch reset: no finding
	f.res = append(f.res[:0], Result{}) // append into pooled buffer: no finding

	ops := make([]uint64, len(vs)) // want `make in hot function post allocates per call`
	_ = ops
}

type DoorbellRunner struct {
	busy    bool
	batches map[uint64]int
}

func (r *DoorbellRunner) Run(plans []Plan) {
	defer func() { r.busy = false }() // want `function literal in hot function Run allocates its closure per call`
	if r.batches == nil {
		//dittolint:allow hotalloc (once-per-runner lazy init, not per call)
		r.batches = make(map[uint64]int)
	}
	res := make([]Result, len(plans)) // want `make in hot function Run allocates per call`
	_ = res
}

type Runner struct {
	Serial   SerialRunner
	Doorbell DoorbellRunner
}

func (r *Runner) RunOne(p Plan) {
	rs := []Result{{}} // want `\[\]exec\.Result literal in hot function RunOne allocates per call`
	_ = rs
	r.Serial.Run(p)
}

// issueAll is a free function, not a run loop: not swept.
func issueAll(p Plan) {
	res := make([]Result, 4) // free function: no finding
	_ = res
}
