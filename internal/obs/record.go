package obs

// record is what a Tracer's ring holds per event: every field of the Event it
// exports as, with the span identity and attributes inline instead of in an
// Args map. Its size is fixed, so a ring retains capacity × sizeof(record)
// bytes by construction (TestTracerRingBytesFixed); the strings it points at
// are its callers' constants and request-lifetime IDs, not copies.
type record struct {
	name, cat string
	ts, dur   float64
	tid       int64

	// Span identity; trace == "" means the event carries none. trace and
	// parent are kept as the caller sent them (a foreign client's IDs need not
	// be 16 hex digits); span is always minted here and rendered on export.
	trace, parent string
	span          uint64

	// args is the attribute map of an event written through the map-taking
	// methods (Begin, Complete, Instant), exported as given.
	args map[string]any

	attrs  [maxSpanAttrs]Attr
	nattrs uint8
	ph     byte  // the Phase* constant's one character
	pid    int32 // pids are small per-exporter constants (MergeTraces remaps them)
}

// maxSpanAttrs is how many attributes one Span call may carry.
const maxSpanAttrs = 3

// Key names a span attribute. The keys are a closed vocabulary so that an
// attribute is a byte in the ring rather than a string header; a new call site
// that needs a new key adds a constant and its name here.
type Key uint8

// Attribute keys of the serve and gateway request paths.
const (
	KeyRequestID Key = iota
	KeyEndpoint
	KeyStatus
	KeyCacheHit
	KeyTasks
	KeyDecisions
	KeyResource
	KeyTask
	KeyReplica
	KeyPath
)

var keyNames = [...]string{
	KeyRequestID: "request_id",
	KeyEndpoint:  "endpoint",
	KeyStatus:    "status",
	KeyCacheHit:  "cache_hit",
	KeyTasks:     "tasks",
	KeyDecisions: "decisions",
	KeyResource:  "resource",
	KeyTask:      "task",
	KeyReplica:   "replica",
	KeyPath:      "path",
}

type attrKind uint8

const (
	attrInt attrKind = iota
	attrBool
	attrString
)

// Attr is one typed span attribute, built with Int, Bool or String.
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

// String returns a string attribute. The ring keeps v's bytes alive until the
// record is overwritten, so v should not alias a large buffer.
func String(k Key, v string) Attr { return Attr{key: k, kind: attrString, str: v} }

func (a Attr) value() any {
	switch a.kind {
	case attrBool:
		return a.num != 0
	case attrString:
		return a.str
	}
	return a.num
}

// event materialises the record's export form. Only Events and
// WriteChromeTrace call it: the Args map of a Span record exists from here on,
// never in the ring.
func (r *record) event() Event {
	e := Event{
		Name: r.name, Cat: r.cat, Ph: string(rune(r.ph)),
		TS: r.ts, Dur: r.dur, PID: int64(r.pid), TID: r.tid, Args: r.args,
	}
	if r.nattrs == 0 && r.trace == "" {
		return e
	}
	e.Args = make(map[string]any, int(r.nattrs)+3)
	for _, a := range r.attrs[:r.nattrs] {
		e.Args[keyNames[a.key]] = a.value()
	}
	if r.trace != "" {
		e.Args[ArgTraceID] = r.trace
		e.Args[ArgSpanID] = formatID(r.span)
		if r.parent != "" {
			e.Args[ArgParentSpan] = r.parent
		}
	}
	return e
}
