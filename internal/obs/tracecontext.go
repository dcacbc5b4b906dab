package obs

import (
	"math/rand/v2"
	"net/http"
	"sync/atomic"
)

// Distributed trace context. A trace is one logical operation (a schedule
// request) whose spans may be recorded by several processes — client,
// gateway, serving replica — each into its own Tracer ring.
// The context travels between processes in two HTTP headers next to
// X-Request-ID; inside a trace export it lives in the span's Args under the
// "trace_id" / "span_id" / "parent_span_id" keys, which is what MergeTraces
// joins on and ValidateTraceLinks resolves.
//
// An ID is 64 bits, written as 16 lowercase hex digits. An inbound header ID
// of 1–16 hex digits, either case, keeps its value (the export and every
// outbound header write it in 16 digits); a trace ID of anything else, or
// none, starts a fresh trace, and a parent span ID of anything else is
// dropped. Nothing of a header's bytes outlives the request.
//
// A trace ID is random. A span ID is the next value of a process-wide
// sequence, so that the ring stores it as a small difference from the span
// before it (record.go); it leaves the process — in an export or an outbound
// header — only through extern, and an inbound parent is stored as its intern.
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

// NewTraceID returns a fresh 16-hex-digit trace identity. Trace IDs are 64
// random bits from the runtime's randomly seeded ChaCha8 generator, so traces
// started independently by different processes never collide.
func NewTraceID() string { return formatID(rand.Uint64()) }

// spanSeq mints span IDs: RootLink and Child take its next value. It starts
// at a random value, so a process's IDs do not start at the same place twice.
var spanSeq atomic.Uint64

// idKeys key the bijection between stored and exported span IDs.
var idKeys [2]uint64

func init() {
	spanSeq.Store(rand.Uint64())
	idKeys = [2]uint64{rand.Uint64(), rand.Uint64()}
}

// extern maps a stored span ID to the ID the process shows: fmix64(x + k₀) ⊕
// k₁, murmur3's 64-bit finaliser between two random keys. It is a bijection,
// so exported IDs are as distinct as the stored ones, and one step of the
// sequence flips about half of the exported bits, so the IDs a process shows
// reveal neither how many spans it minted nor which it minted next. It is
// not a cryptographic permutation: an observer of many IDs may recover the
// keys, and with them the sequence.
func extern(x uint64) uint64 {
	x += idKeys[0]
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x ^ idKeys[1]
}

// intern is the inverse of extern: each step undone in reverse order, a
// multiplication by the constant's inverse modulo 2⁶⁴ and x ^= x >> 33 by
// itself.
func intern(x uint64) uint64 {
	x ^= idKeys[1]
	x ^= x >> 33
	x *= 0x9cb4b2f8129337db // 0xc4ceb9fe1a85ec53⁻¹
	x ^= x >> 33
	x *= 0x4f74430c22a54005 // 0xff51afd7ed558ccd⁻¹
	x ^= x >> 33
	return x - idKeys[0]
}

// formatID renders an ID as 16 lowercase hex digits.
func formatID(id uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := range b {
		b[i] = digits[id>>(60-4*i)&0xf]
	}
	return string(b[:])
}

// parseID returns the value of an ID of 1–16 hex digits, either case, and
// false for any other string.
func parseID(s string) (uint64, bool) {
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	var id uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		id = id<<4 | uint64(c)
	}
	return id, true
}

// Link is one span's place in a trace, in the form Tracer.Span takes it: the
// trace, parent and span IDs as their 64 bits, span IDs as stored (extern
// maps them to what leaves the process), so that minting and recording
// a child span allocates nothing. The zero Link means "no trace context".
type Link struct {
	trace, parent, span uint64
	flags               uint8 // flagTrace, flagParent
}

// RootLink mints the identity of a process's first span in the trace another
// process named: a fresh span ID under traceID and parentSpan. An ID of 1–16
// hex digits keeps its value; a traceID of anything else, none included,
// starts a fresh trace, which has no parent, and a parentSpan of anything
// else is dropped. The parent is stored as its intern, so that it exports as
// sent.
func RootLink(traceID, parentSpan string) Link {
	l := Link{span: spanSeq.Add(1), flags: flagTrace}
	var ok bool
	if l.trace, ok = parseID(traceID); !ok {
		l.trace = rand.Uint64()
		return l
	}
	if parent, ok := parseID(parentSpan); ok {
		l.parent = intern(parent)
		l.flags |= flagParent
	}
	return l
}

// Child mints the identity of a span whose parent is l's span, in l's trace;
// the zero Link when l carries no trace, so untraced work records plain slices.
func (l Link) Child() Link {
	if l.flags&flagTrace == 0 {
		return Link{}
	}
	return Link{trace: l.trace, parent: l.span, span: spanSeq.Add(1), flags: flagTrace | flagParent}
}

// TraceID returns the link's trace ID in the 16 hex digits of the headers, or
// "" for the zero Link.
func (l Link) TraceID() string {
	if l.flags&flagTrace == 0 {
		return ""
	}
	return formatID(l.trace)
}

// Inject writes the link into outbound request headers: its trace, and its
// span as the callee's parent. The zero Link injects nothing.
func (l Link) Inject(h http.Header) {
	if l.flags&flagTrace == 0 {
		return
	}
	h.Set(HeaderTraceID, formatID(l.trace))
	h.Set(HeaderParentSpan, formatID(extern(l.span)))
}

// ExtractTraceContext reads the inbound trace context as sent: the caller's
// trace ID and the span that should become the parent of the callee's request
// span, for RootLink to read. ok is false when no trace header was present.
func ExtractTraceContext(h http.Header) (traceID, parentSpan string, ok bool) {
	traceID = h.Get(HeaderTraceID)
	parentSpan = h.Get(HeaderParentSpan)
	return traceID, parentSpan, traceID != "" || parentSpan != ""
}
