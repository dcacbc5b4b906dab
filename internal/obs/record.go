package obs

import (
	"encoding/binary"
	"math"
)

// record is one event in the form push builds it and the ring's readers
// decode it: every field of the Event it exports as, with the span identity
// and attributes inline instead of in an Args map, and its strings as handles
// into the tracer's strtab. The ring holds no records: it holds each one
// packed by appendTo into a byte chunk, only the fields the event carries,
// and decode reads it back bit for bit.
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
// attribute's key shares one byte of the ring with its kind; a new call site
// that needs a new key adds a constant and its name here (at most 64 keys).
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

// The encoded event, as appendTo writes it and decode reads it against a base,
// the state the events before it left (see base):
//
//	header   uvarint: the link flags, nattr << 2, then the hdr* bits, of
//	         which a traceless event carries its instant and raw-time bits
//	         in two a traced event needs (phaseBits); one byte but for a
//	         traced instant or a traced event in raw time, which no call
//	         site records
//	name     uvarint handle
//	cat      uvarint handle
//	pid      uvarint of its 32 bits
//	tid      zigzag varint
//	ts, dur  when both are whole ns (nanos): ts's ns minus the base's as a
//	         zigzag varint, then dur's ns as a uvarint; else, hdrRawTime, 8
//	         bytes each, the float64 bits, little-endian
//	trace    8 bytes, when flagTrace and not hdrSameTrace
//	span     when flagTrace and not hdrSpanIsParent, the span ID minus the
//	         base's as a zigzag varint of the 64-bit difference, exact
//	         across the wrap at 2⁶⁴: the sequence mints IDs a step apart, so
//	         one or two bytes
//	parent   8 bytes, when flagParent and not hdrSameParent
//	attrs    per attribute a key << 2 | kind byte, then its integer or bool
//	         as a zigzag varint, its float's 8 bytes, or its string's
//	         uvarint handle
//
// On a replica, whose two pool workers interleave requests, a stage span that
// follows one of its request's packs into about 11 bytes plus its attributes,
// and a request span that follows its stages, 29 with three. Its ring holds
// about 23 bytes an event, a gateway's about 29 (a forward span 36, its
// parent's 8 bytes among them), a simulator's about 25.5.
const (
	hdrSameTrace    = 1 << (4 + iota) // the trace ID is the base's
	hdrSameParent                     // the parent ID is the base's
	hdrSpanIsParent                   // the span ID is the base's parent
	hdrInstant
	hdrRawTime
)

// phaseBits returns, for an event with the given link flags, the header bits
// that mark it an instant and its times raw: hdrInstant and hdrRawTime on a traced event, and on a
// traceless one the bits of hdrSameTrace and hdrSpanIsParent, which only a
// traced event reads, so that its header stays one byte.
func phaseBits(flags uint8) (instant, rawTime uint64) {
	if flags&flagTrace == 0 {
		return hdrSameTrace, hdrSpanIsParent
	}
	return hdrInstant, hdrRawTime
}

// maxEventLen bounds one encoded event: a two-byte header, the widest handles,
// pid and tid, raw times (whole-ns times are at most 8 bytes each), the trace
// and parent IDs, the widest span difference, and three attributes of the
// widest kind (TestRecordHasNoPointers).
const maxEventLen = 2 + 3*binary.MaxVarintLen32 + binary.MaxVarintLen64 + 2*8 + 2*8 + binary.MaxVarintLen64 +
	maxSpanAttrs*(1+binary.MaxVarintLen64)

// base is what an event is encoded against: the time in ns and the trace,
// span and parent IDs of the last events before it that carried them. An
// encoder and its decoder advance their bases alike, event by event.
type base struct {
	ns                  int64
	trace, span, parent uint64
}

func (bs *base) advance(r *record, ns int64, whole bool) {
	if whole {
		bs.ns = ns
	}
	if r.flags&flagTrace != 0 {
		bs.trace, bs.span = r.trace, r.span
	}
	if r.flags&flagParent != 0 {
		bs.parent = r.parent
	}
}

// nanos returns n when x is, bit for bit, float64(n)/1e3 for an integer n of
// at most 2^53: a time in µs taken from whole nanoseconds, as Front.Span takes
// it. NaN, ±Inf, −0 and most simulated times are not.
func nanos(x float64) (int64, bool) {
	f := math.RoundToEven(x * 1e3)
	if !(math.Abs(f) < 1<<53) {
		return 0, false
	}
	n := int64(f)
	return n, math.Float64bits(float64(n)/1e3) == math.Float64bits(x)
}

// appendTo appends r's encoding against bs to b and advances bs past r.
func (r *record) appendTo(b []byte, bs *base) []byte {
	h := uint64(r.flags) | uint64(r.nattr)<<2
	trace, parent := r.flags&flagTrace != 0, r.flags&flagParent != 0
	instant, rawTime := phaseBits(r.flags)
	if r.ph == PhaseInstant[0] {
		h |= instant
	}
	ts, tsWhole := nanos(r.ts)
	dur, durWhole := nanos(r.dur)
	whole := tsWhole && durWhole && dur >= 0
	if !whole {
		h |= rawTime
	}
	if trace && r.trace == bs.trace {
		h |= hdrSameTrace
	}
	if trace && r.span == bs.parent {
		h |= hdrSpanIsParent
	}
	if parent && r.parent == bs.parent {
		h |= hdrSameParent
	}
	b = binary.AppendUvarint(b, h)
	b = binary.AppendUvarint(b, uint64(r.name))
	b = binary.AppendUvarint(b, uint64(r.cat))
	b = binary.AppendUvarint(b, uint64(uint32(r.pid)))
	b = binary.AppendVarint(b, r.tid)
	if whole {
		b = binary.AppendVarint(b, ts-bs.ns)
		b = binary.AppendUvarint(b, uint64(dur))
	} else {
		b = le.AppendUint64(b, math.Float64bits(r.ts))
		b = le.AppendUint64(b, math.Float64bits(r.dur))
	}
	if trace && h&hdrSameTrace == 0 {
		b = le.AppendUint64(b, r.trace)
	}
	if trace && h&hdrSpanIsParent == 0 {
		b = binary.AppendVarint(b, int64(r.span-bs.span))
	}
	if parent && h&hdrSameParent == 0 {
		b = le.AppendUint64(b, r.parent)
	}
	for i := 0; i < int(r.nattr); i++ {
		b = append(b, byte(r.keys[i])<<2|byte(r.kinds[i]))
		switch r.kinds[i] {
		case attrFloat:
			b = le.AppendUint64(b, uint64(r.vals[i]))
		case attrString:
			b = binary.AppendUvarint(b, uint64(r.vals[i]))
		default:
			b = binary.AppendVarint(b, r.vals[i])
		}
	}
	bs.advance(r, ts, whole)
	return b
}

var le = binary.LittleEndian

// decoder reads an encoded event field by field.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) u8() byte {
	d.i++
	return d.b[d.i-1]
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.i:])
	d.i += n
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b[d.i:])
	d.i += n
	return v
}

func (d *decoder) u64() uint64 {
	d.i += 8
	return le.Uint64(d.b[d.i-8:])
}

// decode reads into r the event appendTo encoded against bs at the start of
// b, advances bs past it and returns its encoded length.
func (r *record) decode(b []byte, bs *base) int {
	d := decoder{b: b}
	h := d.uvarint()
	r.ph, r.flags, r.nattr = PhaseComplete[0], uint8(h)&(flagTrace|flagParent), uint8(h>>2)&3
	instant, rawTime := phaseBits(r.flags)
	if h&instant != 0 {
		r.ph = PhaseInstant[0]
	}
	r.name, r.cat, r.pid = uint32(d.uvarint()), uint32(d.uvarint()), int32(uint32(d.uvarint()))
	r.tid = d.varint()
	whole := h&rawTime == 0
	var ts int64
	if whole {
		ts = bs.ns + d.varint()
		r.ts, r.dur = float64(ts)/1e3, float64(int64(d.uvarint()))/1e3
	} else {
		r.ts, r.dur = math.Float64frombits(d.u64()), math.Float64frombits(d.u64())
	}
	r.trace, r.span, r.parent = 0, 0, 0
	if r.flags&flagTrace != 0 {
		r.trace, r.span = bs.trace, bs.parent
		if h&hdrSameTrace == 0 {
			r.trace = d.u64()
		}
		if h&hdrSpanIsParent == 0 {
			r.span = bs.span + uint64(d.varint())
		}
	}
	if r.flags&flagParent != 0 {
		if r.parent = bs.parent; h&hdrSameParent == 0 {
			r.parent = d.u64()
		}
	}
	for j := 0; j < int(r.nattr); j++ {
		kb := d.u8()
		r.keys[j], r.kinds[j] = Key(kb>>2), attrKind(kb&3)
		switch r.kinds[j] {
		case attrFloat:
			r.vals[j] = int64(d.u64())
		case attrString:
			r.vals[j] = int64(d.uvarint())
		default:
			r.vals[j] = d.varint()
		}
	}
	bs.advance(r, ts, whole)
	return d.i
}

// event materialises the export form of a decoded record. Only Events calls
// it: an event's Args map exists from here on, never in the ring.
func (t *Tracer) event(r *record) Event {
	s := &t.strs
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
		e.Args[ArgSpanID] = formatID(extern(r.span))
		if r.flags&flagParent != 0 {
			e.Args[ArgParentSpan] = formatID(extern(r.parent))
		}
	}
	return e
}
