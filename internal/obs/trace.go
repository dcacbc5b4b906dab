package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Event is one record in the Chrome trace-event JSON format (the format
// chrome://tracing and Perfetto load). Timestamps and durations are in
// microseconds, per the format specification.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace-event phase constants used by this repository.
const (
	PhaseBegin    = "B" // duration-slice begin
	PhaseEnd      = "E" // duration-slice end
	PhaseComplete = "X" // complete slice with an explicit duration
	PhaseInstant  = "i" // point event
	PhaseMetadata = "M" // process/thread naming
)

// Tracer records timestamped, attributed events into a fixed-capacity ring
// buffer. When the ring is full, the oldest events are overwritten (the
// dropped count is reported in the exported trace), so a long-running server
// always keeps the most recent window. Process and thread names are stored
// outside the ring so lane naming survives wrap-around. All methods are safe
// for concurrent use.
//
// The ring holds fixed-size records without pointers, not Events: a span
// written with Span costs no allocation, and a full ring retains capacity ×
// sizeof(record) bytes whatever was written to it, plus one table entry per
// distinct string its records name. Events are built from the records on
// export.
type Tracer struct {
	mu      sync.Mutex
	buf     []record
	strs    strtab
	next    int
	dropped uint64

	// args is the Args map of each ring slot written by a map-taking method
	// (Begin, Complete, Instant), parallel to buf; nil until the first such
	// event carries a map.
	args []map[string]any

	procNames   map[int64]string
	threadNames map[[2]int64]string
	procOrder   []int64
	threadOrder [][2]int64
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity: 6 MiB, allocated whole at 96 bytes a record. It holds
// a mid-size simulated schedule or a stream run's trace. The serving tier
// sizes its own rings: a serving daemon's from the five stage spans it
// records a request (serve.Config.TraceEvents), a gateway's from the
// replicas it fronts (gateway.Config.TraceEvents).
const DefaultTraceCapacity = 1 << 16

// NewTracer returns a tracer with the given ring capacity (<= 0 selects
// DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		buf:         make([]record, 0, capacity),
		strs:        newStrtab(),
		procNames:   make(map[int64]string),
		threadNames: make(map[[2]int64]string),
	}
}

// push writes one event into the ring, overwriting the oldest record when it
// is full; its strings are interned under the lock.
func (t *Tracer) push(ph byte, name, cat string, pid, tid int64, ts, dur float64, link Link, attrs []Attr, args map[string]any) {
	r := newRecord(ph, pid, tid, ts, dur, link, attrs)
	t.mu.Lock()
	slot := len(t.buf)
	if slot < cap(t.buf) {
		t.buf = t.buf[:slot+1]
	} else {
		slot = t.next
		t.next = (t.next + 1) % cap(t.buf)
		t.dropped++
		t.strs.releaseRecord(&t.buf[slot])
	}
	t.strs.internRecord(&r, name, cat, link, attrs)
	t.buf[slot] = r
	if args != nil && t.args == nil {
		t.args = make([]map[string]any, cap(t.buf))
	}
	if t.args != nil {
		t.args[slot] = args
	}
	t.mu.Unlock()
}

// Begin records the start of a duration slice on lane (pid, tid) at ts
// microseconds.
func (t *Tracer) Begin(name, cat string, pid, tid int64, ts float64, args map[string]any) {
	t.push(PhaseBegin[0], name, cat, pid, tid, ts, 0, Link{}, nil, args)
}

// End closes the innermost open slice on lane (pid, tid) at ts microseconds.
func (t *Tracer) End(name string, pid, tid int64, ts float64) {
	t.push(PhaseEnd[0], name, "", pid, tid, ts, 0, Link{}, nil, nil)
}

// Complete records a slice with an explicit duration (both in microseconds).
func (t *Tracer) Complete(name, cat string, pid, tid int64, ts, dur float64, args map[string]any) {
	t.push(PhaseComplete[0], name, cat, pid, tid, ts, dur, Link{}, nil, args)
}

// Span records a complete slice that carries its place in a distributed trace
// and up to three typed attributes (maxSpanAttrs), without allocating: the request
// paths write one per stage. A zero link records a plain slice. The export
// is the Event that Complete would have produced over a map of the same
// attributes plus the link's trace_id, span_id and, when set, parent_span_id.
func (t *Tracer) Span(name, cat string, pid, tid int64, ts, dur float64, link Link, attrs ...Attr) {
	if len(attrs) > maxSpanAttrs {
		panic("obs: span with more than 3 attributes")
	}
	t.push(PhaseComplete[0], name, cat, pid, tid, ts, dur, link, attrs, nil)
}

// Instant records a point event.
func (t *Tracer) Instant(name, cat string, pid, tid int64, ts float64, args map[string]any) {
	t.push(PhaseInstant[0], name, cat, pid, tid, ts, 0, Link{}, nil, args)
}

// NameProcess assigns a display name to a pid.
func (t *Tracer) NameProcess(pid int64, name string) {
	t.mu.Lock()
	if _, ok := t.procNames[pid]; !ok {
		t.procOrder = append(t.procOrder, pid)
	}
	t.procNames[pid] = name
	t.mu.Unlock()
}

// NameThread assigns a display name to a lane (pid, tid).
func (t *Tracer) NameThread(pid, tid int64, name string) {
	key := [2]int64{pid, tid}
	t.mu.Lock()
	if _, ok := t.threadNames[key]; !ok {
		t.threadOrder = append(t.threadOrder, key)
	}
	t.threadNames[key] = name
	t.mu.Unlock()
}

// Events returns a copy of the buffered events in record order (oldest
// first), excluding naming metadata. Once the ring has dropped records, an E
// whose B was overwritten is left out, per lane, so a wrapped trace still
// balances.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	var open map[[2]int64]int // B records without their E yet, per lane
	if t.dropped > 0 {
		open = make(map[[2]int64]int)
	}
	for i := range t.buf {
		// next is 0 until the ring wraps, the oldest record's slot after.
		slot := (t.next + i) % len(t.buf)
		if r := &t.buf[slot]; open != nil {
			lane := [2]int64{int64(r.pid), r.tid}
			switch r.ph {
			case PhaseBegin[0]:
				open[lane]++
			case PhaseEnd[0]:
				if open[lane] == 0 {
					continue
				}
				open[lane]--
			}
		}
		out = append(out, t.event(slot))
	}
	return out
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// chromeTrace is the JSON-object envelope of the trace-event format.
type chromeTrace struct {
	TraceEvents     []Event        `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace exports the buffered events as a Chrome trace-event JSON
// object: naming metadata first (sorted, so output is deterministic), then
// the events in record order. The result loads directly in chrome://tracing
// and https://ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	procs := append([]int64(nil), t.procOrder...)
	threads := append([][2]int64(nil), t.threadOrder...)
	dropped := t.dropped
	t.mu.Unlock()
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	sort.Slice(threads, func(i, j int) bool {
		if threads[i][0] != threads[j][0] {
			return threads[i][0] < threads[j][0]
		}
		return threads[i][1] < threads[j][1]
	})

	events := make([]Event, 0, len(procs)+len(threads)+t.Len())
	t.mu.Lock()
	for _, pid := range procs {
		events = append(events, Event{
			Name: "process_name", Ph: PhaseMetadata, PID: pid,
			Args: map[string]any{"name": t.procNames[pid]},
		})
	}
	for _, key := range threads {
		events = append(events, Event{
			Name: "thread_name", Ph: PhaseMetadata, PID: key[0], TID: key[1],
			Args: map[string]any{"name": t.threadNames[key]},
		})
	}
	t.mu.Unlock()
	events = append(events, t.Events()...)

	out := chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}
	if dropped > 0 {
		out.OtherData = map[string]any{"dropped_events": dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
