package obs

import (
	"encoding/json"
	"io"
	"slices"
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
// The ring holds events packed into pointer-free byte chunks, not Events: a
// record (record.go) costs the bytes of the fields it carries and does not
// share with the event before it, about 23 for a replica's request-path span
// (span IDs are a step apart, a byte each) and at most maxEventLen, and an event whose strings the ring already names costs
// no allocation. Events are decoded and built on
// export. The ring is bounded by its event count: once it holds capacity
// events, each new one evicts the oldest. Chunks are allocated as the ring
// grows and reused in FIFO order once the oldest events have left them, so a
// tracer keeps about its events' bytes plus part of a chunk, and one table
// entry per distinct string its events name.
type Tracer struct {
	mu sync.Mutex
	// chunks is a circular list of byte chunks. The events run from offset
	// off of chunks[head] through chunks[tail], oldest first; a chunk's
	// length is where its last event ends, and the chunks after tail up to
	// head hold none.
	chunks     [][]byte
	head, tail int
	off        int
	n          int // events in the ring
	capacity   int
	strs       strtab
	dropped    uint64
	// Each event is encoded against the base the events before it left:
	// tailBase is the state after the newest, which push advances, and
	// headBase the state before the oldest, which evict advances, so that
	// the ring decodes from its head whatever it has overwritten.
	headBase, tailBase base

	procNames   map[int64]string
	threadNames map[[2]int64]string
	procOrder   []int64
	threadOrder [][2]int64
}

// DefaultTraceCapacity is the ring size, in events, used when NewTracer is
// given a non-positive capacity: about 2 MiB when full of simulator task
// slices (≈ 25.5 bytes each) and at most 65 536 × maxEventLen (6.4 MiB), of
// which a trace keeps only the chunks it has filled. It holds a mid-size
// simulated schedule or a stream run's trace. The serving tier sizes its own
// rings: a serving daemon's from the five stage spans it records a request
// (serve.Config.TraceEvents), a gateway's from the replicas it fronts
// (gateway.Config.TraceEvents).
const DefaultTraceCapacity = 1 << 16

// chunkBytes is the size of a ring chunk: 32 KiB, about 1 400 request-path
// spans, small beside the rings the serving tier sizes (≈ 185 KiB a replica)
// and large enough that a chunk is allocated once per 280 requests. A ring
// too small to fill one gets chunks of capacity × maxEventLen.
const chunkBytes = 32 << 10

// NewTracer returns a tracer with the given ring capacity in events (<= 0
// selects DefaultTraceCapacity). It allocates no chunk until the first event.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		capacity:    capacity,
		strs:        newStrtab(),
		procNames:   make(map[int64]string),
		threadNames: make(map[[2]int64]string),
	}
}

// push writes one event into the ring, evicting the oldest when it is full;
// its strings are interned and it is encoded under the lock.
func (t *Tracer) push(ph byte, name, cat string, pid, tid int64, ts, dur float64, link Link, attrs []Attr) {
	if len(attrs) > maxSpanAttrs {
		panic("obs: event with more than 3 attributes")
	}
	r := newRecord(ph, pid, tid, ts, dur, link, attrs)
	t.mu.Lock()
	if t.n == t.capacity {
		t.evict()
	} else {
		t.n++
	}
	t.strs.internRecord(&r, name, cat, attrs)
	t.reserve()
	t.chunks[t.tail] = r.appendTo(t.chunks[t.tail], &t.tailBase)
	t.mu.Unlock()
}

// evict drops the oldest event and releases the strings it names. A ring
// left empty (a capacity of one) restarts its chunk.
func (t *Tracer) evict() {
	c := t.chunks[t.head]
	var r record
	size := r.decode(c[t.off:], &t.headBase)
	t.strs.releaseRecord(&r)
	t.dropped++
	if t.off += size; t.off == len(c) {
		if t.head == t.tail {
			t.chunks[t.tail] = c[:0]
		} else {
			t.head = (t.head + 1) % len(t.chunks)
		}
		t.off = 0
	}
}

// reserve makes room for one encoded event at the end of chunks[tail]: when
// the tail chunk is too full, the tail moves on to the chunk after it if no
// event is left there, and to a new chunk inserted after it otherwise.
func (t *Tracer) reserve() {
	if len(t.chunks) == 0 {
		t.chunks = append(t.chunks, make([]byte, 0, min(chunkBytes, t.capacity*maxEventLen)))
	}
	if c := t.chunks[t.tail]; cap(c)-len(c) >= maxEventLen {
		return
	}
	next := (t.tail + 1) % len(t.chunks)
	if next == t.head {
		next = t.tail + 1
		t.chunks = slices.Insert(t.chunks, next, make([]byte, 0, cap(t.chunks[t.tail])))
		if t.head > t.tail {
			t.head++
		}
	}
	t.tail = next
	t.chunks[next] = t.chunks[next][:0]
}

// each decodes the ring's events in record order, oldest first.
func (t *Tracer) each(f func(r *record)) {
	var r record
	bs := t.headBase
	c, off := t.head, t.off
	for i := 0; i < t.n; i++ {
		if off == len(t.chunks[c]) {
			c, off = (c+1)%len(t.chunks), 0
		}
		off += r.decode(t.chunks[c][off:], &bs)
		f(&r)
	}
}

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
	t.each(func(r *record) { out = append(out, t.event(r)) })
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
