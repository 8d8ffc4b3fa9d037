package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records benchmark-side spans around the calls the benchmark
// makes into hzccl and serve. Spans live in memory and are written once,
// as a Chrome trace file, when the traced pass ends. A nil *tracer is the
// untraced pass: begin returns a span whose end does nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	id, parent int
	name       string
	lane       int // rank, client or 0: the Chrome "tid"
	op         int // operation ordinal shared by the spans of one op
	start, dur time.Duration
}

// span is an open spanRec; id is exported to callers as the parent of
// the spans they cause.
type span struct {
	t  *tracer
	t0 time.Time
	spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; parent is the id of the span that caused it (0 for
// a root).
func (t *tracer) begin(name string, lane, op, parent int) span {
	if t == nil {
		return span{}
	}
	rec := spanRec{id: int(t.next.Add(1)), parent: parent, name: name, lane: lane, op: op}
	return span{t: t, t0: time.Now(), spanRec: rec}
}

func (s span) end() {
	if s.t == nil {
		return
	}
	s.start, s.dur = s.t0.Sub(s.t.epoch), time.Since(s.t0)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.spanRec)
	s.t.mu.Unlock()
}

// write emits the spans as Chrome trace "complete" events (loadable in
// chrome://tracing and Perfetto).
func (t *tracer) write(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Ph: "X", Tid: s.lane,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent, "op": s.op}}
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "benchmarkMeta": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
