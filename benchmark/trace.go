package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// Span names. Spans are recorded from the harness's own files, around
// the calls into the system; spans inside the system are a later change.
const (
	sRun uint8 = iota
	sSetup
	sBuild
	sLoad
	sWarmup
	sMeasure
	sScaleout
	sNext
	sVerify
	sCall // + kind: core.get, core.set, core.mget, core.mset
)

var spanNames = []string{"run", "setup", "build", "load", "warmup", "measure", "scaleout",
	"workload.next", "harness.verify", "core.get", "core.set", "core.mget", "core.mset"}

// span is one interval on both clocks. It holds no pointers, so a traced
// run's millions of spans cost the garbage collector nothing to keep.
type span struct {
	parent   int32 // span id; 0 for the root
	client   int16 // -1 outside any client
	name     uint8
	keys     int32
	vt0, vt1 int64 // virtual ns
	h0, h1   int64 // host ns since the trace began
}

// tracer keeps the spans of one traced run in memory. A nil tracer
// records nothing, which is how untraced runs execute the same code.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	tick     int64 // host ns one clock read costs; every host span holds one
}

func newTracer(workload string, capacity int) *tracer {
	t := &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, capacity)}
	const reads = 4096
	start := t.now()
	for i := 0; i < reads; i++ {
		t.now()
	}
	t.tick = (t.now() - start) / reads
	return t
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// open starts a span that close ends; the id is the span's index plus one.
func (t *tracer) open(parent int32, client int, name uint8, vt int64) int32 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{parent: parent, client: int16(client), name: name, vt0: vt, h0: t.now()})
	return int32(len(t.spans))
}

func (t *tracer) close(id int32, vt int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.vt1, s.h1 = vt, t.now()
}

func (t *tracer) add(parent int32, client int, name uint8, keys int, vt0, vt1, h0, h1 int64) {
	t.spans = append(t.spans, span{parent: parent, client: int16(client), name: name,
		keys: int32(keys), vt0: vt0, vt1: vt1, h0: h0, h1: h1})
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID        int    `json:"id"`
			Parent    int32  `json:"parent"`
			Workload  string `json:"workload"`
			Client    int16  `json:"client"`
			Name      string `json:"name"`
			VTStart   int64  `json:"vt_start"`
			VTEnd     int64  `json:"vt_end"`
			HostStart int64  `json:"host_start"`
			HostEnd   int64  `json:"host_end"`
			Keys      int32  `json:"keys"`
		}{i + 1, s.parent, t.workload, s.client, spanNames[s.name], s.vt0, s.vt1, s.h0, s.h1, s.keys}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
