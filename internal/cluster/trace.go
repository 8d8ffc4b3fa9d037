package cluster

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Execution tracing. When a Cluster is created with NewTraced, every
// virtual-time advance (compute categories and communication waits) is
// recorded as an interval on the owning rank's timeline. The trace exports
// in the Chrome trace-event JSON format (chrome://tracing, Perfetto), which
// makes ring pipelines, stragglers and overlap visually inspectable —
// the debugging view used while calibrating the experiments.

// TraceEvent is one interval on a rank's virtual timeline.
type TraceEvent struct {
	Rank     int
	Category Category
	// Name optionally overrides the displayed slice label; empty means the
	// category name.
	Name string
	// Start and Dur are in virtual seconds.
	Start float64
	Dur   float64
}

// TraceMeta identifies the process that produced a trace file, letting
// the merge path (MergeChromeTraces) stitch per-process files into one
// timeline: Rank remaps process ids, EpochNanos aligns wall clocks.
// Rank is -1 when one process hosted every rank (the in-process fabric).
type TraceMeta struct {
	Rank       int   `json:"rank"`
	World      int   `json:"world"`
	EpochNanos int64 `json:"epochNanos"`
}

// FlowPoint is one endpoint of a cross-rank message edge: phase 's' is
// recorded by the sender, phase 'f' by the receiver on delivery, and the
// shared ID pairs them. The exporter renders each point as a small
// wall-clock slice with the flow event bound to it, so Perfetto draws an
// arrow from the send slice to the matching recv slice — across process
// boundaries once traces are merged.
type FlowPoint struct {
	Phase byte // 's' (start, at the sender) or 'f' (finish, at the receiver)
	// ID pairs the two endpoints: trace ID, link, epoch and sequence
	// number together identify one message globally.
	ID   string
	Name string
	Rank int
	// Start and Dur are wall seconds since the trace epoch.
	Start float64
	Dur   float64
}

// Instant is a point event on the wall timeline (retransmissions,
// degradation moves, op starts).
type Instant struct {
	Name string
	Rank int
	Ts   float64 // wall seconds since the trace epoch
}

// Trace accumulates events from all ranks of one run. Virtual-time and
// wall-clock intervals are kept on separate timelines: virtual events
// carry modeled seconds, wall events carry real measured seconds since
// the cluster was created (recorded by Wall around the actual work). The
// Chrome export shows them as two processes so modeled and measured
// schedules can be compared side by side.
type Trace struct {
	mu       sync.Mutex
	events   []TraceEvent
	wall     []TraceEvent
	flows    []FlowPoint
	instants []Instant
	meta     *TraceMeta
}

func (t *Trace) record(ev TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

func (t *Trace) recordWall(ev TraceEvent) {
	t.mu.Lock()
	t.wall = append(t.wall, ev)
	t.mu.Unlock()
}

func (t *Trace) recordFlow(p FlowPoint) {
	t.mu.Lock()
	t.flows = append(t.flows, p)
	t.mu.Unlock()
}

func (t *Trace) recordInstant(i Instant) {
	t.mu.Lock()
	t.instants = append(t.instants, i)
	t.mu.Unlock()
}

func (t *Trace) setMeta(m TraceMeta) {
	t.mu.Lock()
	t.meta = &m
	t.mu.Unlock()
}

// Meta returns the producing process's identity, or nil when the trace
// was never attached to a cluster.
func (t *Trace) Meta() *TraceMeta {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.meta == nil {
		return nil
	}
	m := *t.meta
	return &m
}

// Flows returns the recorded message-flow endpoints sorted by (rank,
// start).
func (t *Trace) Flows() []FlowPoint {
	t.mu.Lock()
	out := make([]FlowPoint, len(t.flows))
	copy(out, t.flows)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Instants returns the recorded point events sorted by (rank, ts).
func (t *Trace) Instants() []Instant {
	t.mu.Lock()
	out := make([]Instant, len(t.instants))
	copy(out, t.instants)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Ts < out[j].Ts
	})
	return out
}

func sortEvents(out []TraceEvent) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Start < out[j].Start
	})
}

// Events returns the recorded virtual-time intervals sorted by
// (rank, start).
func (t *Trace) Events() []TraceEvent {
	t.mu.Lock()
	out := make([]TraceEvent, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sortEvents(out)
	return out
}

// WallEvents returns the recorded wall-clock intervals sorted by
// (rank, start). Start is real seconds since cluster creation; Dur is the
// measured duration of the work.
func (t *Trace) WallEvents() []TraceEvent {
	t.mu.Lock()
	out := make([]TraceEvent, len(t.wall))
	copy(out, t.wall)
	t.mu.Unlock()
	sortEvents(out)
	return out
}

// chromeEvent is the trace-event JSON schema: complete events (phase
// "X"), flow events ("s"/"f", paired by ID), instants ("i") and metadata
// ("M"); timestamps in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`  // instant scope ("t": thread)
	Bp   string         `json:"bp,omitempty"` // flow binding point ("e": enclosing slice)
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the object form of the trace-event format: wrapping the
// event array lets viewers (Perfetto in particular) pick up the display
// unit, while the array stays readable inside "traceEvents". Meta rides
// along as an extension field (ignored by viewers) so MergeChromeTraces
// can identify and align per-process files.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Meta            *TraceMeta    `json:"hzcclMeta,omitempty"`
}

// Chrome trace process ids: virtual-time events on pid 0, wall-clock
// events on pid 1.
const (
	chromePidVirtual = 0
	chromePidWall    = 1
)

// WriteChrome writes the trace in Chrome trace-event JSON (object form,
// {"traceEvents": [...], "displayTimeUnit": "ms"}). Virtual-time events
// appear under the "virtual time" process (pid 0), wall-clock spans under
// "wall clock" (pid 1). Load the file in chrome://tracing or
// https://ui.perfetto.dev to inspect the timeline.
func (t *Trace) WriteChrome(w io.Writer) error {
	evs := t.Events()
	wall := t.WallEvents()
	flows := t.Flows()
	instants := t.Instants()
	out := make([]chromeEvent, 0, len(evs)+len(wall)+2*len(flows)+len(instants)+2)
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePidVirtual,
		Args: map[string]any{"name": "virtual time"},
	})
	if len(wall) > 0 || len(flows) > 0 || len(instants) > 0 {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: chromePidWall,
			Args: map[string]any{"name": "wall clock"},
		})
	}
	emit := func(pid int, evs []TraceEvent) {
		for _, ev := range evs {
			name := string(ev.Category)
			if ev.Name != "" {
				name = ev.Name
			}
			out = append(out, chromeEvent{
				Name: name,
				Ph:   "X",
				Ts:   ev.Start * 1e6,
				Dur:  ev.Dur * 1e6,
				Pid:  pid,
				Tid:  ev.Rank,
			})
		}
	}
	emit(chromePidVirtual, evs)
	emit(chromePidWall, wall)
	// Each flow endpoint renders as a small wall slice with the flow event
	// bound inside it: "s" points at the sender, "f" points (binding point
	// "e", the enclosing slice) at the receiver, and Perfetto draws the
	// arrow between the two slices sharing the ID — across processes once
	// traces are merged.
	for _, f := range flows {
		dur := f.Dur
		if dur <= 0 {
			dur = 1e-9
		}
		out = append(out, chromeEvent{
			Name: f.Name, Ph: "X",
			Ts: f.Start * 1e6, Dur: dur * 1e6,
			Pid: chromePidWall, Tid: f.Rank,
		})
		fe := chromeEvent{
			Name: "msg", Ph: string(f.Phase), Cat: "msg", ID: f.ID,
			Ts:  (f.Start + dur/2) * 1e6,
			Pid: chromePidWall, Tid: f.Rank,
		}
		if f.Phase == 'f' {
			fe.Bp = "e"
		}
		out = append(out, fe)
	}
	for _, i := range instants {
		out = append(out, chromeEvent{
			Name: i.Name, Ph: "i", S: "t",
			Ts:  i.Ts * 1e6,
			Pid: chromePidWall, Tid: i.Rank,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms", Meta: t.Meta()})
}

// NewTraced creates a cluster whose ranks record every virtual-time
// advance into the returned Trace.
func NewTraced(cfg Config) (*Cluster, *Trace, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	tr := &Trace{}
	c.attachTrace(tr)
	return c, tr, nil
}
