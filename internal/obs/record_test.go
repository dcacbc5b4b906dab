package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// TestSpanExportsAsCompleteWithSpanArgs pins the export of a record: each
// span, typed attributes and link, serialises to the bytes of a literal
// complete event whose Args hold the attributes plus the link's IDs in 16 hex
// digits (SpanArgs): the trace ID as stored, the span and parent IDs through
// extern.
func TestSpanExportsAsCompleteWithSpanArgs(t *testing.T) {
	out := func(id uint64) string { return formatID(extern(id)) }
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
			args:  SpanArgs(map[string]any{"tasks": 120, "decisions": 497, "forwards": -1}, "00000000000000aa", out(0x0123456789abcdef), out(0xbb)),
		},
		{
			name:  "root without a parent",
			link:  Link{trace: 0xaa, span: 1, flags: flagTrace},
			attrs: []Attr{Int(KeyRequestID, 7), String(KeyEndpoint, "schedule"), Int(KeyStatus, 200)},
			args:  SpanArgs(map[string]any{"request_id": 7, "endpoint": "schedule", "status": 200}, "00000000000000aa", out(1), ""),
		},
		{
			// A zero ID is an ID: the flags, not the value, say it is there.
			name:  "zero trace and parent",
			link:  Link{span: 0xffffffffffffffff, flags: flagTrace | flagParent},
			attrs: []Attr{Bool(KeyCacheHit, true)},
			args:  SpanArgs(map[string]any{"cache_hit": true}, "0000000000000000", out(0xffffffffffffffff), out(0)),
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
// (a parent is stored as its intern, so extern gives the value back) and
// anything else starts a fresh trace without a parent; a child names its
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
	if l := RootLink("00000000000000aa", "b"); l.trace != 0xaa || extern(l.parent) != 0xb || l.flags != flagTrace|flagParent {
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

// TestRecordHasNoPointers: a ring's chunks are allocations the collector
// never scans only if they hold no pointer, so a record lives in the ring as
// bytes; and maxEventLen, which bounds a ring at capacity × maxEventLen
// (DefaultTraceCapacity, a serving daemon's TraceEvents) and sizes the room
// push keeps at a chunk's end, is exactly the widest event's encoding: a
// traced event in raw times, which take the header's second byte, whose span
// ID is 2⁶³ from its base's, the widest zigzag difference. Whole-ns times as
// far from their base as they may be are no wider, and a traceless event in
// raw time, instant or not, keeps a one-byte header.
func TestRecordHasNoPointers(t *testing.T) {
	if typ := reflect.TypeOf(Tracer{}.chunks).Elem(); typ != reflect.TypeOf([]byte(nil)) {
		t.Fatalf("a ring chunk is a %s, want []byte", typ)
	}
	widest := Link{trace: math.MaxUint64, parent: math.MaxUint64, span: 1 << 63, flags: flagTrace | flagParent}
	attrs := []Attr{Int(KeyBase, math.MinInt64), Int(KeyBase, math.MaxInt64), Int(KeyBase, math.MinInt64)}
	r := newRecord(PhaseComplete[0], -1, math.MinInt64, math.NaN(), math.Inf(-1), widest, attrs)
	r.name, r.cat = math.MaxUint32, math.MaxUint32
	b := r.appendTo(nil, &base{})
	if len(b) != maxEventLen {
		t.Fatalf("the widest event encodes in %d bytes, maxEventLen is %d", len(b), maxEventLen)
	}
	var got record
	if n := got.decode(b, &base{}); n != len(b) || !sameRecord(got, r) {
		t.Fatalf("the widest event decodes as %+v from %d bytes, want %+v", got, len(b), r)
	}
	const far = 1<<53 - 2
	r.ts, r.dur = -far/1e3, far/1e3
	if b := r.appendTo(nil, &base{ns: far}); len(b) > maxEventLen || b[0] >= 0x80 {
		t.Fatalf("whole-ns times %d ns from their base encode in %d bytes, header byte %#x; want at most maxEventLen, %d, and a one-byte header", 2*far, len(b), b[0], maxEventLen)
	}
	for _, ph := range []string{PhaseComplete, PhaseInstant} {
		u := newRecord(ph[0], 1, 1, 0.1, 0.5, Link{}, attrs)
		var got record
		if b := u.appendTo(nil, &base{}); b[0] >= 0x80 || got.decode(b, &base{}) != len(b) || !sameRecord(got, u) {
			t.Fatalf("a traceless %q event in raw time encodes as % x, header byte %#x, and decodes as %+v; want a one-byte header and %+v", ph, b, b[0], got, u)
		}
	}
}

// sameRecord compares two records bit for bit, floats by their bits.
func sameRecord(a, b record) bool {
	bits := func(r record) record {
		r.ts, r.dur = math.Float64frombits(0), 0
		return r
	}
	return math.Float64bits(a.ts) == math.Float64bits(b.ts) && math.Float64bits(a.dur) == math.Float64bits(b.dur) &&
		bits(a) == bits(b)
}

// ringBytes is how many bytes of a tracer's chunks its events fill.
func ringBytes(tr *Tracer) int {
	n := -tr.off
	for c := tr.head; ; c = (c + 1) % len(tr.chunks) {
		n += len(tr.chunks[c])
		if c == tr.tail {
			return n
		}
	}
}

// TestTracerRingBytesFixed holds the ring to its byte bounds under
// replica-shaped traffic: two requests in flight, as two pool workers run
// them, each recording its four stages and then its request span, which of
// the two records next drawn at random, with times in whole ns as Front.Span
// takes them. A fresh tracer keeps under a KiB whatever its capacity; an
// event packs into at most 31 bytes (it reads 27.7: a stage that follows one
// of its own request's takes its trace and parent from it, a request span
// that follows its stages takes its span ID, and every other span ID is a
// step or two from the last one, a byte); a ring filled to a third keeps
// chunks only for the bytes its events fill; and after three laps the tracer
// keeps its events' bytes, at most one chunk more, and a table of the few
// strings its call sites name — not a map per span, and not the requests'
// IDs, which an event holds as numbers.
func TestTracerRingBytesFixed(t *testing.T) {
	const capacity = 1 << 14
	const slack = 16 << 10
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	keeps := func(before uint64) uint64 {
		if after := liveHeap(); after > before {
			return after - before
		}
		return 0
	}

	// Sixteen of them, so that one reading is not the heap's noise.
	before := liveHeap()
	var fresh [16]*Tracer
	for i := range fresh {
		fresh[i] = NewTracer(0)
	}
	keptFresh := keeps(before) / uint64(len(fresh))
	if keptFresh > 1<<10 {
		t.Fatalf("a fresh NewTracer(0) keeps %d bytes live, want at most 1 KiB: the ring must grow on demand", keptFresh)
	}
	runtime.KeepAlive(fresh)

	before = liveHeap()
	tr := NewTracer(capacity)
	type request struct {
		link      Link
		id, start int64
		stage     int
	}
	var inflight [2]request
	var ids int64
	clock := int64(time.Hour) // ns since the front's epoch
	us := func(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }
	rng := rand.New(rand.NewPCG(3, 4))
	span := func(i int) {
		w := &inflight[rng.IntN(2)]
		if w.stage == 0 {
			ids++
			*w = request{link: RootLink(NewTraceID(), NewTraceID()), id: ids, start: clock}
		}
		start := clock
		clock += 40_000 + int64(i%7)*3_001
		switch w.stage {
		case 0:
			tr.Span("model_load", "registry", 1, w.id, us(start), us(clock-start), w.link.Child(), Bool(KeyCacheHit, true))
		case 1:
			tr.Span("queue_wait", "pool", 1, w.id, us(start), us(clock-start), w.link.Child())
		case 2:
			tr.Span("rollout", "sim", 1, w.id, us(start), us(clock-start), w.link.Child(),
				Int(KeyTasks, 120), Int(KeyDecisions, 497), Int(KeyForwards, 388))
		case 3:
			tr.Span("references", "sim", 1, w.id, us(start), us(clock-start), w.link.Child())
		default:
			tr.Span("request", "schedule", 1, w.id, us(w.start), us(clock-w.start), w.link,
				Int(KeyRequestID, w.id), String(KeyEndpoint, "schedule"), Int(KeyStatus, 200))
			w.stage = -1
		}
		w.stage++
	}
	// A chunk is cut when less than maxEventLen is left at its end.
	const usable = chunkBytes - maxEventLen
	const third = capacity / 3
	for i := 0; i < third; i++ {
		span(i)
	}
	keptThird, filled := keeps(before), ringBytes(tr)
	if chunks := (filled + usable - 1) / usable; len(tr.chunks) > chunks {
		t.Fatalf("a ring holding %d events in %d bytes has %d chunks, want at most %d", third, filled, len(tr.chunks), chunks)
	}
	if bound := uint64(len(tr.chunks)*chunkBytes + slack); keptThird > bound {
		t.Fatalf("a ring holding %d of %d events keeps %d bytes live, bound is %d (%d chunks of %d B) + %d slack",
			third, capacity, keptThird, bound, len(tr.chunks), chunkBytes, slack)
	}
	for i := third; i < 3*capacity; i++ {
		span(i)
	}
	kept, filled := keeps(before), ringBytes(tr)
	if tr.Len() != capacity || tr.dropped != 2*capacity {
		t.Fatalf("ring holds %d, dropped %d", tr.Len(), tr.dropped)
	}
	perEvent := float64(filled) / capacity
	t.Logf("%.1f B an event, %d B of events in %d chunks, tracer keeps %d B live full, %d B a third full and %d B fresh",
		perEvent, filled, len(tr.chunks), kept, keptThird, keptFresh)
	if perEvent > 31 {
		t.Fatalf("an event packs into %.1f bytes, want at most 31", perEvent)
	}
	// The head's chunk is part drained and the tail's part filled: one
	// chunk's worth between them.
	chunks := (filled+usable-1)/usable + 1
	if len(tr.chunks) > chunks {
		t.Fatalf("a full ring of %d bytes has %d chunks, want at most %d", filled, len(tr.chunks), chunks)
	}
	if bound := uint64(chunks*chunkBytes + slack); kept > bound {
		t.Fatalf("a full ring keeps %d bytes live, bound is %d (%d B of events in %d chunks of %d B) + %d slack",
			kept, bound, filled, chunks, chunkBytes, slack)
	}
	runtime.KeepAlive(tr)
}

// TestTracerStringTableBounded: a trace whose every span has a name and a
// client's trace ID of its own (a simulator's per-task names, a client's
// short hex IDs) keeps only the names of the events still in the ring — the
// IDs are their 64 bits, in no table. Over three laps of a ring of several
// chunks, each lap crossing at least two chunk boundaries, checked at every
// chunk and lap boundary against a plain slice of what was written, the ring
// exports the newest capacity events oldest first under their own names and
// IDs, counts the rest as dropped, and its table holds their names plus the
// vocabulary.
func TestTracerStringTableBounded(t *testing.T) {
	const capacity = 4001
	tr := NewTracer(capacity)
	name := func(i int) string { return fmt.Sprintf("task %d", i) }
	id := func(i int) string { return strconv.FormatInt(int64(i), 16) }
	vocab := len([]string{"", "sim", "/v1/schedule"})
	var written []int  // every event, oldest first
	var crossed [3]int // chunk boundaries crossed in each lap
	chunk, checks := 0, 0
	for i := 0; i < 3*capacity; i++ {
		tr.Span(name(i), "sim", 1, 1, float64(i), 1, RootLink(id(i), ""), String(KeyPath, "/v1/schedule"))
		written = append(written, i)
		moved := tr.tail != chunk
		chunk = tr.tail
		if moved {
			crossed[i/capacity]++
		}
		if n := len(written); !moved && n%capacity > 1 && n != 3*capacity {
			continue
		}
		checks++
		want := written[max(0, len(written)-capacity):]
		kept, dropped := len(want), len(written)-len(want)
		if tr.Len() != kept || tr.dropped != uint64(dropped) {
			t.Fatalf("after %d events: Len %d, dropped %d; want %d and %d", len(written), tr.Len(), tr.dropped, kept, dropped)
		}
		for j, e := range tr.Events() {
			if w := want[j]; e.Name != name(w) || e.TS != float64(w) || e.Args[ArgTraceID] != formatID(uint64(w)) || e.Args["path"] != "/v1/schedule" {
				t.Fatalf("after %d events, event %d exports as %q at %v %v, want %q with trace %016x", len(written), j, e.Name, e.TS, e.Args, name(w), w)
			}
		}
		checkStrtab(t, tr)
		if live, slots := len(tr.strs.ids), len(tr.strs.strs); live != kept+vocab-1 || slots > capacity+vocab {
			t.Fatalf("after %d events, string table: %d live entries, %d slots; want %d live and at most %d slots (capacity + vocabulary)",
				len(written), live, slots, kept+vocab-1, capacity+vocab)
		}
	}
	if len(tr.chunks) < 3 || checks < 12 || min(crossed[0], crossed[1], crossed[2]) < 2 {
		t.Fatalf("%d chunks, %d checks, %v chunk boundaries crossed a lap: the ring must span several chunks and cross them every lap", len(tr.chunks), checks, crossed)
	}
}

// checkStrtab holds a tracer's string table to its ring: every entry counts
// exactly the events that name it, a live entry is indexed under its own
// handle, and a dead one is on the free list.
func checkStrtab(t *testing.T, tr *Tracer) {
	t.Helper()
	s := &tr.strs
	held := make([]int32, len(s.refs))
	tr.each(func(r *record) {
		held[r.name]++
		held[r.cat]++
		for j := 0; j < int(r.nattr); j++ {
			if r.kinds[j] == attrString {
				held[r.vals[j]]++
			}
		}
	})
	for h := 1; h < len(held); h++ {
		indexed := s.strs[h] != "" && s.ids[s.strs[h]] == uint32(h)
		if s.refs[h] != held[h] || indexed != (held[h] > 0) {
			t.Fatalf("handle %d (%q) counts %d events and is indexed %v; the ring holds it %d times",
				h, s.strs[h], s.refs[h], indexed, held[h])
		}
	}
	if len(s.ids)+len(s.free)+1 != len(s.strs) {
		t.Fatalf("string table: %d indexed + %d free + \"\" != %d slots", len(s.ids), len(s.free), len(s.strs))
	}
}

// TestRecordRoundTrip feeds events of extreme values through rings of odd
// capacities — one event, a few, several chunks' worth — for three laps and
// compares every export, at each of many points, with a plain slice of what
// was written: tids and int attributes at MinInt64 and MaxInt64, NaN (with a
// payload), ±Inf, −0 and subnormal floats as timestamps, durations and
// attributes (compared by their bits), empty names and strings, every key,
// every link shape, and pids outside int32, which export truncated exactly as
// int32(pid). Times are as often whole ns, as Front.Span writes them, on a
// clock that rises, falls and stands still, or near 2^53 ns, where whole-ns
// encoding gives way to raw bits; IDs come from a small set, and an event
// often takes the trace and parent of the one before it, or has its parent
// as span ID, so every field that an event may take from its base does, on
// both sides of each ring's wrap. Half the span IDs are a step of either sign
// from the last traced span's, small or up to 2⁶³, and the set's 0 and
// 2⁶⁴ − 1 make many of those steps wrap; a step of two across the wrap, up or
// down, is one byte of difference.
func TestRecordRoundTrip(t *testing.T) {
	for _, c := range []struct{ from, to uint64 }{{math.MaxUint64, 1}, {1, math.MaxUint64}, {math.MaxUint64 - 1, 0}} {
		r := newRecord(PhaseComplete[0], 1, 1, 0, 0, Link{trace: 5, span: c.to, flags: flagTrace}, nil)
		b := r.appendTo(nil, &base{trace: 5, span: c.from, parent: 9})
		var got record
		bs := base{trace: 5, span: c.from, parent: 9}
		if got.decode(b, &bs); len(b) != 8 || got.span != c.to || bs.span != c.to {
			t.Fatalf("span %#x after %#x encodes in %d bytes (want 8, one of them the difference) and decodes as %#x", c.to, c.from, len(b), got.span)
		}
	}
	ints := []int64{0, 1, -1, 63, -64, 64, math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxUint32, 1 << 40}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff), math.MaxFloat64, 1234.5678}
	strs := []string{"", "x", "outage", "a longer string value"}
	ids := []uint64{0, 1, math.MaxUint64, 0x0123456789abcdef}
	steps := []int64{1, 2, -1, -2, 63, -64, 64, -65, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	near53 := []int64{1<<53 - 2, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 - 1), -(1 << 53)}
	if _, whole := nanos(float64(near53[0]) / 1e3); !whole {
		t.Fatal("2^53 - 2 ns does not encode as whole ns")
	}
	if _, whole := nanos(float64(near53[2]) / 1e3); whole {
		t.Fatal("2^53 ns encodes as whole ns, want raw bits")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	pick := func(n int) int { return rng.IntN(n) }
	var clock int64 // ns
	when := func() float64 {
		switch pick(4) {
		case 0:
			return floats[pick(len(floats))]
		case 1:
			return float64(near53[pick(len(near53))]) / 1e3
		}
		clock += int64(pick(3)-1) * int64(pick(1<<30))
		return float64(clock) / 1e3
	}

	for _, capacity := range []int{1, 7, 1999} {
		tr := NewTracer(capacity)
		var written []Event
		var prev Link
		var lastSpan uint64 // the span ID of the last traced span
		for i := 0; i < 3*capacity+17; i++ {
			e := Event{Name: strs[pick(len(strs))] + strconv.Itoa(pick(40)), Cat: strs[pick(len(strs))],
				TS: when(), TID: ints[pick(len(ints))]}
			if pick(5) == 0 {
				e.Name = ""
			}
			pid := ints[pick(len(ints))]
			e.PID = int64(int32(pid))
			var attrs []Attr
			args := map[string]any{}
			for _, k := range rng.Perm(len(keyNames))[:pick(maxSpanAttrs+1)] {
				key := Key(k)
				var a Attr
				switch pick(4) {
				case 0:
					a = Int(key, ints[pick(len(ints))])
					args[keyNames[key]] = a.num
				case 1:
					b := pick(2) == 0
					a = Bool(key, b)
					args[keyNames[key]] = b
				case 2:
					f := floats[pick(len(floats))]
					a = Float(key, f)
					args[keyNames[key]] = f
				default:
					a = String(key, strs[pick(len(strs))])
					args[keyNames[key]] = a.str
				}
				attrs = append(attrs, a)
			}
			if pick(3) == 0 {
				e.Ph = PhaseInstant
				tr.Instant(e.Name, e.Cat, pid, e.TID, e.TS, attrs...)
			} else {
				e.Ph, e.Dur = PhaseComplete, when()
				link := Link{trace: ids[pick(len(ids))], parent: ids[pick(len(ids))], span: ids[pick(len(ids))], flags: uint8(pick(4))}
				if pick(2) == 0 {
					link.span = lastSpan + uint64(steps[pick(len(steps))])
				}
				switch pick(3) {
				case 0: // a stage after a stage of its request
					link.trace, link.parent = prev.trace, prev.parent
				case 1: // a request span after its stages
					link.trace, link.span = prev.trace, prev.parent
				}
				prev = link
				if link.flags&flagTrace != 0 {
					lastSpan = link.span
					args[ArgTraceID], args[ArgSpanID] = formatID(link.trace), formatID(extern(link.span))
					if link.flags&flagParent != 0 {
						args[ArgParentSpan] = formatID(extern(link.parent))
					}
				}
				tr.Span(e.Name, e.Cat, pid, e.TID, e.TS, e.Dur, link, attrs...)
			}
			if len(args) > 0 {
				e.Args = args
			}
			written = append(written, e)
			if i%97 != 0 && i%capacity != 0 {
				continue
			}
			want := written[max(0, len(written)-capacity):]
			got := tr.Events()
			if len(got) != len(want) || tr.dropped != uint64(len(written)-len(want)) {
				t.Fatalf("capacity %d, after %d events: %d exported, %d dropped", capacity, len(written), len(got), tr.dropped)
			}
			for j := range got {
				if !sameEvent(got[j], want[j]) {
					t.Fatalf("capacity %d, after %d events, event %d exports as\n%#v, want\n%#v", capacity, len(written), j, got[j], want[j])
				}
			}
			checkStrtab(t, tr)
		}
		if capacity > 1000 && len(tr.chunks) < 3 {
			t.Fatalf("the ring spans %d chunks, want several", len(tr.chunks))
		}
	}
}

// sameEvent compares two events field by field, floats by their bits.
func sameEvent(a, b Event) bool {
	same := func(x, y any) bool {
		if fx, ok := x.(float64); ok {
			fy, ok := y.(float64)
			return ok && math.Float64bits(fx) == math.Float64bits(fy)
		}
		return x == y
	}
	if a.Name != b.Name || a.Cat != b.Cat || a.Ph != b.Ph || a.PID != b.PID || a.TID != b.TID ||
		!same(a.TS, b.TS) || !same(a.Dur, b.Dur) || len(a.Args) != len(b.Args) || (a.Args == nil) != (b.Args == nil) {
		return false
	}
	for k, v := range a.Args {
		if w, ok := b.Args[k]; !ok || !same(v, w) {
			return false
		}
	}
	return true
}
