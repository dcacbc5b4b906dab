package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"unsafe"
)

// TestSpanExportsAsCompleteWithSpanArgs pins the export of a record: each
// span, typed attributes and link, serialises to the bytes of a literal
// complete event whose Args hold the attributes plus the link's IDs in 16 hex
// digits (SpanArgs).
func TestSpanExportsAsCompleteWithSpanArgs(t *testing.T) {
	cases := []struct {
		name  string
		link  Link
		attrs []Attr
		args  map[string]any
	}{
		{
			name:  "child with three ints",
			link:  Link{trace: 0xaa, parent: 0xbb, span: 0x0123456789abcdef, flags: flagTrace | flagParent},
			attrs: []Attr{Int(KeyTasks, 120), Int(KeyDecisions, 497), Int(KeyForwards, -1)},
			args:  SpanArgs(map[string]any{"tasks": 120, "decisions": 497, "forwards": -1}, "00000000000000aa", "0123456789abcdef", "00000000000000bb"),
		},
		{
			name:  "root without a parent",
			link:  Link{trace: 0xaa, span: 1, flags: flagTrace},
			attrs: []Attr{Int(KeyRequestID, 7), String(KeyEndpoint, "schedule"), Int(KeyStatus, 200)},
			args:  SpanArgs(map[string]any{"request_id": 7, "endpoint": "schedule", "status": 200}, "00000000000000aa", "0000000000000001", ""),
		},
		{
			// A zero ID is an ID: the flags, not the value, say it is there.
			name:  "zero trace and parent",
			link:  Link{span: 0xffffffffffffffff, flags: flagTrace | flagParent},
			attrs: []Attr{Bool(KeyCacheHit, true)},
			args:  SpanArgs(map[string]any{"cache_hit": true}, "0000000000000000", "ffffffffffffffff", "0000000000000000"),
		},
		{
			name:  "floats and a string",
			attrs: []Attr{Float(KeyStarted, 1234.5678), Float(KeyFactor, 1e-7), String(KeyCause, "outage")},
			args:  map[string]any{"started": 1234.5678, "factor": 1e-7, "cause": "outage"},
		},
		{
			name:  "no trace context",
			attrs: []Attr{String(KeyReplica, "http://127.0.0.1:1"), String(KeyPath, "/v1/schedule"), Bool(KeyCacheHit, false)},
			args:  map[string]any{"replica": "http://127.0.0.1:1", "path": "/v1/schedule", "cache_hit": false},
		},
		{name: "bare"},
	}
	tr := NewTracer(8)
	want := chromeTrace{DisplayTimeUnit: "ms"}
	for i, c := range cases {
		tr.Span(c.name, "cat", 1, int64(i), float64(i), 2.5, c.link, c.attrs...)
		want.TraceEvents = append(want.TraceEvents, Event{
			Name: c.name, Cat: "cat", Ph: PhaseComplete, TS: float64(i), Dur: 2.5, PID: 1, TID: int64(i), Args: c.args,
		})
	}
	var got, wantBuf bytes.Buffer
	if err := tr.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&wantBuf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantBuf.Bytes()) {
		t.Fatalf("spans export differently from their literal events:\n got %s\nwant %s", got.Bytes(), wantBuf.Bytes())
	}
}

// TestLinkContextRoundTrip: an inbound ID of 1–16 hex digits keeps its value
// and anything else starts a fresh trace without a parent; a child names its
// parent by the parent's span ID, and a traceless link has no children.
func TestLinkContextRoundTrip(t *testing.T) {
	root := RootLink("1A", "not-hex")
	if root.TraceID() != "000000000000001a" || root.flags != flagTrace {
		t.Fatalf("root %+v has trace ID %q", root, root.TraceID())
	}
	child := root.Child()
	if child.trace != 0x1a || child.parent != root.span || child.flags != flagTrace|flagParent || child.span == root.span {
		t.Fatalf("child = %+v under %+v", child, root)
	}
	if l := RootLink("00000000000000aa", "b"); l.trace != 0xaa || l.parent != 0xb || l.flags != flagTrace|flagParent {
		t.Fatalf("short hex parent: %+v", l)
	}
	for _, id := range []string{"", "trace-from-client", "0123456789abcdef0", "0x1a", "+1a"} {
		a, b := RootLink(id, "00000000000000bb"), RootLink(id, "00000000000000bb")
		if a.flags != flagTrace || a.trace == b.trace {
			t.Fatalf("trace ID %q: links %+v and %+v, want two fresh traces without a parent", id, a, b)
		}
	}
	if (Link{}).Child() != (Link{}) || (Link{}).TraceID() != "" {
		t.Fatal("no trace, no link: the zero Link must have no trace ID and only zero children")
	}
}

// TestSpanAllocatesNothing is the per-stage cost contract of the request
// paths: minting a child identity and recording it with three integer
// attributes touches the heap zero times.
func TestSpanAllocatesNothing(t *testing.T) {
	tr := NewTracer(64)
	root := RootLink(NewTraceID(), "")
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span("rollout", "sim", 1, 9, 12.5, 3, root.Child(), Int(KeyTasks, 120), Int(KeyDecisions, 497), Int(KeyForwards, 388))
	})
	if allocs != 0 {
		t.Fatalf("a child span with three int attributes costs %v allocations, want 0", allocs)
	}
}

// TestRecordHasNoPointers: a ring is one allocation the collector never
// scans only if a record holds no pointer, and 96 bytes a record is what sizes
// a ring (DefaultTraceCapacity, a serving daemon's TraceEvents).
func TestRecordHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the collector would scan every ring", path, typ.Kind())
		}
	}
	walk("record", reflect.TypeOf(record{}))
	if size := unsafe.Sizeof(record{}); size > 96 {
		t.Errorf("a record is %d bytes, want at most 96", size)
	}
}

// TestTracerRingBytesFixed holds the ring to its byte bound: after three laps
// of request-shaped traffic (a fresh trace every five spans, a request's root
// and its four stages) the tracer keeps capacity × sizeof(record) bytes alive
// and a table of the few strings its call sites name — not a map per span, and
// not the requests' IDs, which a record holds as their 64 bits.
func TestTracerRingBytesFixed(t *testing.T) {
	const capacity = 1 << 14
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	tr := NewTracer(capacity)
	stages := []string{"model_load", "queue_wait", "rollout", "references"}
	var root Link
	for i := 0; i < 3*capacity; i++ {
		if i%5 == 0 {
			root = RootLink(NewTraceID(), "")
			tr.Span("request", "schedule", 1, int64(i), float64(i), 1, root,
				Int(KeyRequestID, int64(i)), String(KeyEndpoint, "schedule"), Int(KeyStatus, 200))
			continue
		}
		tr.Span(stages[i%5-1], "serve", 1, int64(i), float64(i), 1, root.Child(), Int(KeyTasks, 1), Int(KeyDecisions, int64(i)))
	}
	after := liveHeap()
	if tr.Len() != capacity || tr.dropped != 2*capacity {
		t.Fatalf("ring holds %d, dropped %d", tr.Len(), tr.dropped)
	}
	ring := uint64(capacity * unsafe.Sizeof(record{}))
	const slack = 16 << 10
	t.Logf("record %d B, ring %d B, tracer keeps %d B live", unsafe.Sizeof(record{}), ring, after-before)
	if after > before && after-before > ring+slack {
		t.Fatalf("a full ring keeps %d bytes live, bound is %d (capacity × %d B) + %d slack",
			after-before, ring, unsafe.Sizeof(record{}), slack)
	}
	runtime.KeepAlive(tr)
}

// TestTracerStringTableBounded: a trace whose every span has a name and a
// client's trace ID of its own (a simulator's per-task names, a client's
// short hex IDs) keeps only the names of the records still in the ring — the
// IDs are their 64 bits, in no table — so after three laps the table has the
// last lap's names plus the vocabulary, and the survivors still export their
// own names and IDs.
func TestTracerStringTableBounded(t *testing.T) {
	const capacity = 1 << 10
	tr := NewTracer(capacity)
	name := func(i int) string { return fmt.Sprintf("task %d", i) }
	id := func(i int) string { return strconv.FormatInt(int64(i), 16) }
	for i := 0; i < 3*capacity; i++ {
		tr.Span(name(i), "sim", 1, 1, float64(i), 1, RootLink(id(i), ""), String(KeyPath, "/v1/schedule"))
	}
	checkStrtab(t, tr)
	vocab := len([]string{"", "sim", "/v1/schedule"})
	if live, slots := len(tr.strs.ids), len(tr.strs.strs); live != capacity+vocab-1 || slots > capacity+vocab {
		t.Fatalf("string table: %d live entries, %d slots; want %d live and at most %d slots (capacity + vocabulary)",
			live, slots, capacity+vocab-1, capacity+vocab)
	}
	ev := tr.Events()
	for _, i := range []int{0, capacity - 1} {
		e, want := ev[i], 2*capacity+i
		if e.Name != name(want) || e.Args[ArgTraceID] != formatID(uint64(want)) || e.Args["path"] != "/v1/schedule" {
			t.Fatalf("event %d exports as %q %v, want %q with trace %016x", i, e.Name, e.Args, name(want), want)
		}
	}
}

// checkStrtab holds a tracer's string table to its ring: every entry counts
// exactly the records that name it, a live entry is indexed under its own
// handle, and a dead one is on the free list.
func checkStrtab(t *testing.T, tr *Tracer) {
	t.Helper()
	s := &tr.strs
	held := make([]int32, len(s.refs))
	for i := range tr.buf {
		r := &tr.buf[i]
		held[r.name]++
		held[r.cat]++
		for j := 0; j < int(r.nattr); j++ {
			if r.kinds[j] == attrString {
				held[r.vals[j]]++
			}
		}
	}
	for h := 1; h < len(held); h++ {
		indexed := s.strs[h] != "" && s.ids[s.strs[h]] == uint32(h)
		if s.refs[h] != held[h] || indexed != (held[h] > 0) {
			t.Fatalf("handle %d (%q) counts %d records and is indexed %v; the ring holds it %d times",
				h, s.strs[h], s.refs[h], indexed, held[h])
		}
	}
	if len(s.ids)+len(s.free)+1 != len(s.strs) {
		t.Fatalf("string table: %d indexed + %d free + \"\" != %d slots", len(s.ids), len(s.free), len(s.strs))
	}
}
