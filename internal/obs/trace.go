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

// Trace-event phases a Tracer writes; ValidateChromeTrace accepts these only.
const (
	PhaseComplete = "X" // complete slice with an explicit duration
	PhaseInstant  = "i" // point event
	PhaseMetadata = "M" // process/thread naming
)

// Tracer records timestamped events with typed attributes into a
// fixed-capacity ring buffer. When the ring is full, the oldest events are
// overwritten (the dropped count is reported in the exported trace), so a
// long-running server always keeps the most recent window. Process and
// thread names are stored outside the ring so lane naming survives
// wrap-around. All methods are safe for concurrent use.
//
// The ring holds fixed-size records without pointers, not Events: an event
// whose strings the ring already names costs no allocation, and a full ring
// retains capacity × sizeof(record) bytes whatever was written to it, plus
// one table entry per distinct string its records name. Events are built
// from the records on export. The ring grows on demand in chunks of chunkLen
// records, the last cut to the capacity, so a tracer that has recorded n
// events keeps ⌈n / chunkLen⌉ chunks: a request-span ring sized for the
// busiest window costs only what a quieter one has filled.
type Tracer struct {
	mu       sync.Mutex
	chunks   [][]record // ring slot i is chunks[i/chunkLen][i%chunkLen]
	n        int        // records in the ring
	capacity int
	strs     strtab
	next     int
	dropped  uint64

	procNames   map[int64]string
	threadNames map[[2]int64]string
	procOrder   []int64
	threadOrder [][2]int64
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity: at most 6 MiB at 96 bytes a record, of which a trace
// keeps only the chunks it has filled. It holds a mid-size simulated schedule
// or a stream run's trace. The serving tier sizes its own rings: a serving
// daemon's from the five stage spans it records a request
// (serve.Config.TraceEvents), a gateway's from the replicas it fronts
// (gateway.Config.TraceEvents).
const DefaultTraceCapacity = 1 << 16

// chunkLen is how many records the ring allocates at a time: 48 KiB, small
// beside the rings the serving tier sizes (768 KiB a replica) and large
// enough that a chunk is allocated once per hundred requests.
const chunkLen = 512

// NewTracer returns a tracer with the given ring capacity (<= 0 selects
// DefaultTraceCapacity). It allocates no ring slot until the first event.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		chunks:      make([][]record, 0, (capacity+chunkLen-1)/chunkLen),
		capacity:    capacity,
		strs:        newStrtab(),
		procNames:   make(map[int64]string),
		threadNames: make(map[[2]int64]string),
	}
}

// push writes one event into the ring, overwriting the oldest record when it
// is full; its strings are interned under the lock.
func (t *Tracer) push(ph byte, name, cat string, pid, tid int64, ts, dur float64, link Link, attrs []Attr) {
	if len(attrs) > maxSpanAttrs {
		panic("obs: event with more than 3 attributes")
	}
	r := newRecord(ph, pid, tid, ts, dur, link, attrs)
	t.mu.Lock()
	slot := t.n
	if slot < t.capacity {
		if slot%chunkLen == 0 {
			t.chunks = append(t.chunks, make([]record, min(chunkLen, t.capacity-slot)))
		}
		t.n++
	} else {
		slot = t.next
		t.next = (t.next + 1) % t.capacity
		t.dropped++
		t.strs.releaseRecord(t.at(slot))
	}
	t.strs.internRecord(&r, name, cat, attrs)
	*t.at(slot) = r
	t.mu.Unlock()
}

// at returns the record in ring slot i.
func (t *Tracer) at(i int) *record { return &t.chunks[i/chunkLen][i%chunkLen] }

// Span records a complete slice on lane (pid, tid), from ts for dur (both in
// microseconds), that carries its place in a distributed trace and up to
// three typed attributes (maxSpanAttrs), without allocating: the request
// paths write one per stage. A zero link records a plain slice. The export
// carries the attributes and the link's trace_id, span_id and, when set,
// parent_span_id in its Args.
func (t *Tracer) Span(name, cat string, pid, tid int64, ts, dur float64, link Link, attrs ...Attr) {
	t.push(PhaseComplete[0], name, cat, pid, tid, ts, dur, link, attrs)
}

// Complete records a complete slice outside any distributed trace: Span with
// the zero Link. attrs may be nil.
func (t *Tracer) Complete(name, cat string, pid, tid int64, ts, dur float64, attrs []Attr) {
	t.push(PhaseComplete[0], name, cat, pid, tid, ts, dur, Link{}, attrs)
}

// Instant records a point event with up to three typed attributes.
func (t *Tracer) Instant(name, cat string, pid, tid int64, ts float64, attrs ...Attr) {
	t.push(PhaseInstant[0], name, cat, pid, tid, ts, 0, Link{}, attrs)
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
// first), excluding naming metadata. Every event is whole on its own — a
// complete slice or an instant — so a wrapped ring exports a valid trace.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		// next is 0 until the ring wraps, the oldest record's slot after.
		out = append(out, t.event((t.next+i)%t.n))
	}
	return out
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
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
