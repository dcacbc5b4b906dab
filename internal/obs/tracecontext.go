package obs

import (
	"math/rand/v2"
	"net/http"
)

// Distributed trace context. A trace is one logical operation (a schedule
// request, a fleet job) whose spans may be recorded by several processes —
// client, dispatcher, worker, serving daemon — each into its own Tracer ring.
// The context travels between processes in two HTTP headers next to
// X-Request-ID; inside a trace export it lives in the span's Args under the
// "trace_id" / "span_id" / "parent_span_id" keys, which is what MergeTraces
// joins on and ValidateTraceLinks resolves.
const (
	// HeaderTraceID carries the trace identity of the calling operation.
	HeaderTraceID = "X-Trace-ID"
	// HeaderParentSpan carries the caller's current span ID; the callee's
	// request span becomes its child.
	HeaderParentSpan = "X-Parent-Span-ID"
)

// Args keys under which span identity is recorded in trace events.
const (
	ArgTraceID    = "trace_id"
	ArgSpanID     = "span_id"
	ArgParentSpan = "parent_span_id"
)

// SpanContext identifies one span within one trace.
type SpanContext struct {
	// TraceID groups every span of one logical operation across processes.
	TraceID string
	// SpanID identifies this span; children reference it as their parent.
	SpanID string
}

// NewTraceID returns a fresh 16-hex-digit trace identity. IDs are 64 random
// bits from the runtime's randomly seeded ChaCha8 generator, so traces started
// independently by different processes never collide.
func NewTraceID() string { return formatID(rand.Uint64()) }

// NewSpanID returns a fresh 16-hex-digit span identity.
func NewSpanID() string { return formatID(rand.Uint64()) }

// formatID renders an ID as 16 lowercase hex digits.
func formatID(id uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := range b {
		b[i] = digits[id>>(60-4*i)&0xf]
	}
	return string(b[:])
}

// Link is one span's place in a trace, in the form Tracer.Span takes it: the
// trace and parent IDs as the caller holds them (the ring keeps a canonical
// one as its 64 bits, any other as a string-table handle), the span's own ID
// as the 64 bits it was minted from, so that minting and recording a child
// span allocates nothing. The zero Link means "no trace context".
type Link struct {
	trace, parent string
	span          uint64
}

// RootLink mints the identity of a process's first span in a trace: a fresh
// span ID under the (possibly empty) parent span another process named.
// Without a trace ID there is no trace to have a place in: the zero Link.
func RootLink(traceID, parentSpan string) Link {
	if traceID == "" {
		return Link{}
	}
	return Link{trace: traceID, parent: parentSpan, span: rand.Uint64()}
}

// Child mints the identity of a span whose parent is sc; the zero Link when
// sc carries no trace, so untraced work records plain slices.
func (sc SpanContext) Child() Link { return RootLink(sc.TraceID, sc.SpanID) }

// Context returns the link's span as a SpanContext: what its children name as
// their parent and what Inject sends to the next process. The zero Link has
// the zero context, which injects nothing.
func (l Link) Context() SpanContext {
	if l.trace == "" {
		return SpanContext{}
	}
	return SpanContext{TraceID: l.trace, SpanID: formatID(l.span)}
}

// Inject writes the context into outbound request headers. Empty fields are
// omitted, so an uninitialised context injects nothing.
func (sc SpanContext) Inject(h http.Header) {
	if sc.TraceID != "" {
		h.Set(HeaderTraceID, sc.TraceID)
	}
	if sc.SpanID != "" {
		h.Set(HeaderParentSpan, sc.SpanID)
	}
}

// ExtractTraceContext reads the inbound trace context: the caller's trace ID
// and the span that should become the parent of the callee's request span.
// ok is false when no trace header was present.
func ExtractTraceContext(h http.Header) (traceID, parentSpan string, ok bool) {
	traceID = h.Get(HeaderTraceID)
	parentSpan = h.Get(HeaderParentSpan)
	return traceID, parentSpan, traceID != "" || parentSpan != ""
}

// SpanArgs merges span identity into a (possibly nil) args map: trace_id and
// span_id always, parent_span_id only when non-empty. The input map is
// returned when non-nil (mutated in place), matching how trace call sites
// build their args. It serves the map-taking Tracer methods, which the cold
// fleet call sites still use; the request paths record through Tracer.Span.
func SpanArgs(args map[string]any, traceID, spanID, parentSpan string) map[string]any {
	if args == nil {
		args = make(map[string]any, 3)
	}
	args[ArgTraceID] = traceID
	args[ArgSpanID] = spanID
	if parentSpan != "" {
		args[ArgParentSpan] = parentSpan
	}
	return args
}
