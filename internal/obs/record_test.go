package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"unsafe"
)

// TestSpanExportsAsCompleteWithSpanArgs pins the export of the typed span
// path to the map path it replaced on the request paths: the same span written
// both ways serialises to the same bytes, foreign IDs included.
func TestSpanExportsAsCompleteWithSpanArgs(t *testing.T) {
	cases := []struct {
		name  string
		link  Link
		attrs []Attr
		args  map[string]any
	}{
		{
			name:  "child with three ints",
			link:  Link{trace: "00000000000000aa", parent: "00000000000000bb", span: 0x0123456789abcdef},
			attrs: []Attr{Int(KeyTasks, 120), Int(KeyDecisions, 497), Int(KeyForwards, -1)},
			args:  SpanArgs(map[string]any{"tasks": 120, "decisions": 497, "forwards": -1}, "00000000000000aa", "0123456789abcdef", "00000000000000bb"),
		},
		{
			name:  "root without a parent",
			link:  Link{trace: "00000000000000aa", span: 1},
			attrs: []Attr{Int(KeyRequestID, 7), String(KeyEndpoint, "schedule"), Int(KeyStatus, 200)},
			args:  SpanArgs(map[string]any{"request_id": int64(7), "endpoint": "schedule", "status": 200}, "00000000000000aa", "0000000000000001", ""),
		},
		{
			// A client's IDs are whatever it sent, not 16 hex digits; both
			// must come back verbatim for its own spans to link.
			name:  "foreign trace and parent",
			link:  Link{trace: "1a", parent: "client/span 7", span: 0xffffffffffffffff},
			attrs: []Attr{Bool(KeyCacheHit, true)},
			args:  SpanArgs(map[string]any{"cache_hit": true}, "1a", "ffffffffffffffff", "client/span 7"),
		},
		{
			name:  "no trace context",
			attrs: []Attr{String(KeyReplica, "http://127.0.0.1:1"), String(KeyPath, "/v1/schedule"), Bool(KeyCacheHit, false)},
			args:  map[string]any{"replica": "http://127.0.0.1:1", "path": "/v1/schedule", "cache_hit": false},
		},
		{name: "bare"},
	}
	typed, mapped := NewTracer(8), NewTracer(8)
	for i, c := range cases {
		typed.Span(c.name, "cat", 1, int64(i), float64(i), 2.5, c.link, c.attrs...)
		mapped.Complete(c.name, "cat", 1, int64(i), float64(i), 2.5, c.args)
	}
	var got, want bytes.Buffer
	if err := typed.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := mapped.WriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("typed spans export differently from Complete+SpanArgs:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// TestLinkContextRoundTrip: a child names its parent by the ID the parent's
// Context carries, and a traceless context yields no link at all.
func TestLinkContextRoundTrip(t *testing.T) {
	root := RootLink("trace-from-client", "not-hex")
	sc := root.Context()
	if sc.TraceID != "trace-from-client" || len(sc.SpanID) != 16 {
		t.Fatalf("root context = %+v", sc)
	}
	child := sc.Child()
	if child.trace != sc.TraceID || child.parent != sc.SpanID || child.span == root.span {
		t.Fatalf("child = %+v under %+v", child, sc)
	}
	if (SpanContext{}).Child() != (Link{}) || (Link{}).Context() != (SpanContext{}) {
		t.Fatal("no trace, no link: the zero context and the zero Link must map to each other")
	}
}

// TestSpanAllocatesNothing is the per-stage cost contract of the request
// paths: minting a child identity and recording it with three integer
// attributes touches the heap zero times.
func TestSpanAllocatesNothing(t *testing.T) {
	tr := NewTracer(64)
	sc := RootLink(NewTraceID(), "").Context()
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span("rollout", "sim", 1, 9, 12.5, 3, sc.Child(), Int(KeyTasks, 120), Int(KeyDecisions, 497), Int(KeyForwards, 388))
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
	var sc SpanContext
	for i := 0; i < 3*capacity; i++ {
		if i%5 == 0 {
			root := RootLink(NewTraceID(), "")
			sc = root.Context()
			tr.Span("request", "schedule", 1, int64(i), float64(i), 1, root,
				Int(KeyRequestID, int64(i)), String(KeyEndpoint, "schedule"), Int(KeyStatus, 200))
			continue
		}
		tr.Span(stages[i%5-1], "serve", 1, int64(i), float64(i), 1, sc.Child(), Int(KeyTasks, 1), Int(KeyDecisions, int64(i)))
	}
	after := liveHeap()
	if tr.Len() != capacity || tr.Dropped() != 2*capacity {
		t.Fatalf("ring holds %d, dropped %d", tr.Len(), tr.Dropped())
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
// foreign trace ID of its own (a simulator's per-task names, a client's IDs)
// keeps only the strings of the records still in the ring — after three laps
// the table has the last lap's names and IDs plus the vocabulary, and the
// survivors still export their own strings.
func TestTracerStringTableBounded(t *testing.T) {
	const capacity = 1 << 10
	tr := NewTracer(capacity)
	name := func(i int) string { return fmt.Sprintf("task %d", i) }
	id := func(i int) string { return strconv.FormatInt(int64(i), 16) } // short hex: foreign
	for i := 0; i < 3*capacity; i++ {
		tr.Span(name(i), "sim", 1, 1, float64(i), 1, RootLink(id(i), ""), String(KeyPath, "/v1/schedule"))
	}
	checkStrtab(t, tr)
	vocab := len([]string{"", "sim", "/v1/schedule"})
	if live, slots := len(tr.strs.ids), len(tr.strs.strs); live != 2*capacity+vocab-1 || slots > 2*capacity+vocab {
		t.Fatalf("string table: %d live entries, %d slots; want %d live and at most %d slots (2 × capacity + vocabulary)",
			live, slots, 2*capacity+vocab-1, 2*capacity+vocab)
	}
	ev := tr.Events()
	for _, i := range []int{0, capacity - 1} {
		e, want := ev[i], 2*capacity+i
		if e.Name != name(want) || e.Args[ArgTraceID] != id(want) || e.Args["path"] != "/v1/schedule" {
			t.Fatalf("event %d exports as %q %v, want %q with trace %q", i, e.Name, e.Args, name(want), id(want))
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
		if r.flags&flagTraceStr != 0 {
			held[r.trace]++
		}
		if r.flags&flagParentStr != 0 {
			held[r.parent]++
		}
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
