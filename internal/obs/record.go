package obs

import "math"

// record is what a Tracer's ring holds per event: every field of the Event it
// exports as, with the span identity and attributes inline instead of in an
// Args map. It holds no pointers — strings are handles into the tracer's
// strtab — so a ring's chunks are allocations the collector never scans, and
// a full ring retains capacity × sizeof(record) bytes by construction
// (TestTracerRingBytesFixed, TestRecordHasNoPointers).
type record struct {
	ts, dur float64
	tid     int64
	span    uint64

	// The trace and parent IDs, when flagTrace / flagParent say the event
	// carries them. span is always minted here.
	trace, parent uint64

	// vals holds an attribute's integer, its bool as 0/1, its float's bits or
	// its string's handle.
	vals  [maxSpanAttrs]int64
	name  uint32 // handle
	cat   uint32 // handle
	pid   int32  // pids are small per-exporter constants (MergeTraces remaps them)
	keys  [maxSpanAttrs]Key
	kinds [maxSpanAttrs]attrKind
	nattr uint8
	ph    byte // the Phase* constant's one character
	flags uint8
}

// record.flags bits.
const (
	flagTrace uint8 = 1 << iota
	flagParent
)

// maxSpanAttrs is how many attributes one event may carry.
const maxSpanAttrs = 3

// Key names an event attribute. The keys are a closed vocabulary so that an
// attribute is a byte in the ring rather than a string header; a new call site
// that needs a new key adds a constant and its name here.
type Key uint8

// Attribute keys of the serve and gateway request paths, then of the
// simulator's task, fault and arrival events.
const (
	KeyRequestID Key = iota
	KeyEndpoint
	KeyStatus
	KeyCacheHit
	KeyTasks
	KeyDecisions
	KeyForwards
	KeyReplica
	KeyPath
	KeyTask
	KeyKernel
	KeyStarted
	KeyCause
	KeyFactor
	KeyJob
	KeyBase
)

var keyNames = [...]string{
	KeyRequestID: "request_id",
	KeyEndpoint:  "endpoint",
	KeyStatus:    "status",
	KeyCacheHit:  "cache_hit",
	KeyTasks:     "tasks",
	KeyDecisions: "decisions",
	KeyForwards:  "forwards",
	KeyReplica:   "replica",
	KeyPath:      "path",
	KeyTask:      "task",
	KeyKernel:    "kernel",
	KeyStarted:   "started",
	KeyCause:     "cause",
	KeyFactor:    "factor",
	KeyJob:       "job",
	KeyBase:      "base",
}

type attrKind uint8

const (
	attrInt attrKind = iota
	attrBool
	attrFloat
	attrString
)

// Attr is one typed event attribute, built with Int, Bool, Float or String.
type Attr struct {
	key  Key
	kind attrKind
	num  int64
	str  string
}

// Int returns an integer attribute.
func Int(k Key, v int64) Attr { return Attr{key: k, kind: attrInt, num: v} }

// Bool returns a boolean attribute.
func Bool(k Key, v bool) Attr {
	a := Attr{key: k, kind: attrBool}
	if v {
		a.num = 1
	}
	return a
}

// Float returns a floating-point attribute.
func Float(k Key, v float64) Attr {
	return Attr{key: k, kind: attrFloat, num: int64(math.Float64bits(v))}
}

// String returns a string attribute. The tracer keeps v itself, not a copy,
// until the last record in its ring that names v is overwritten, so v should
// not alias a large buffer.
func String(k Key, v string) Attr { return Attr{key: k, kind: attrString, str: v} }

// strtab interns the strings a ring's records name. An entry counts the
// records that hold its handle and is freed when the last of them is
// overwritten, so the table holds the ring's distinct strings and no others,
// and a known string interns without allocating. Handle 0 is "".
type strtab struct {
	strs []string
	refs []int32
	ids  map[string]uint32
	free []uint32
}

func newStrtab() strtab {
	return strtab{strs: []string{""}, refs: []int32{0}, ids: make(map[string]uint32)}
}

func (s *strtab) intern(v string) uint32 {
	if v == "" {
		return 0
	}
	h, ok := s.ids[v]
	if !ok {
		if n := len(s.free); n > 0 {
			h, s.free = s.free[n-1], s.free[:n-1]
			s.strs[h] = v
		} else {
			h = uint32(len(s.strs))
			s.strs = append(s.strs, v)
			s.refs = append(s.refs, 0)
		}
		s.ids[v] = h
	}
	s.refs[h]++
	return h
}

func (s *strtab) release(h uint32) {
	if h == 0 {
		return
	}
	if s.refs[h]--; s.refs[h] == 0 {
		delete(s.ids, s.strs[h])
		s.strs[h] = ""
		s.free = append(s.free, h)
	}
}

// internRecord resolves the strings of an event into r's handles.
func (s *strtab) internRecord(r *record, name, cat string, attrs []Attr) {
	r.name, r.cat = s.intern(name), s.intern(cat)
	for i, a := range attrs {
		if a.kind == attrString {
			r.vals[i] = int64(s.intern(a.str))
		}
	}
}

// releaseRecord drops r's hold on every handle it names.
func (s *strtab) releaseRecord(r *record) {
	s.release(r.name)
	s.release(r.cat)
	for i := 0; i < int(r.nattr); i++ {
		if r.kinds[i] == attrString {
			s.release(uint32(r.vals[i]))
		}
	}
}

// newRecord fills in everything of an event that needs no string table; push
// interns the rest under the tracer's lock.
func newRecord(ph byte, pid, tid int64, ts, dur float64, link Link, attrs []Attr) record {
	r := record{ph: ph, ts: ts, dur: dur, pid: int32(pid), tid: tid,
		trace: link.trace, parent: link.parent, span: link.span, flags: link.flags}
	r.nattr = uint8(len(attrs))
	for i, a := range attrs {
		r.keys[i], r.kinds[i], r.vals[i] = a.key, a.kind, a.num
	}
	return r
}

// event materialises the export form of the record in a ring slot. Only
// Events calls it: an event's Args map exists from here on, never in the ring.
func (t *Tracer) event(slot int) Event {
	r, s := t.at(slot), &t.strs
	e := Event{
		Name: s.strs[r.name], Cat: s.strs[r.cat], Ph: string(rune(r.ph)),
		TS: r.ts, Dur: r.dur, PID: int64(r.pid), TID: r.tid,
	}
	if r.nattr == 0 && r.flags&flagTrace == 0 {
		return e
	}
	e.Args = make(map[string]any, int(r.nattr)+3)
	for i := 0; i < int(r.nattr); i++ {
		var v any = r.vals[i]
		switch r.kinds[i] {
		case attrBool:
			v = r.vals[i] != 0
		case attrFloat:
			v = math.Float64frombits(uint64(r.vals[i]))
		case attrString:
			v = s.strs[r.vals[i]]
		}
		e.Args[keyNames[r.keys[i]]] = v
	}
	if r.flags&flagTrace != 0 {
		e.Args[ArgTraceID] = formatID(r.trace)
		e.Args[ArgSpanID] = formatID(r.span)
		if r.flags&flagParent != 0 {
			e.Args[ArgParentSpan] = formatID(r.parent)
		}
	}
	return e
}
