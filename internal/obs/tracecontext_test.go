package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"testing"
)

// FuzzTraceContext feeds arbitrary trace-context header bytes down the path a
// request takes — ExtractTraceContext, RootLink, a root and a child Span,
// WriteChromeTrace — and requires the export to decode with the header
// contract: a trace or parent ID of 1–16 hex digits comes back as its value in
// 16 lowercase digits (a parent stored as its intern exports as sent), a
// span's own ID as the extern of the stored one, a trace ID of anything else is a fresh trace without a
// parent, every span carries the trace the front echoes (Context), and no byte
// of an ID is kept in the ring's string table. The ring holds three records
// and is written twice, so the second root overwrites the first and the
// strings they share must outlive the record that interned them, counted
// exactly (checkStrtab).
func FuzzTraceContext(f *testing.F) {
	f.Fuzz(func(t *testing.T, traceHdr, parentHdr string) {
		h := http.Header{}
		h.Set(HeaderTraceID, traceHdr)
		h.Set(HeaderParentSpan, parentHdr)
		traceID, parent, _ := ExtractTraceContext(h)
		tr := NewTracer(3)
		var root Link
		for pass := 0; pass < 2; pass++ {
			root = RootLink(traceID, parent)
			tr.Span("request", "schedule", 1, 1, 0, 2, root, String(KeyEndpoint, traceHdr))
			tr.Span("rollout", "sim", 1, 1, 1, 1, root.Child(), Int(KeyForwards, 3))
		}
		checkStrtab(t, tr)
		for _, s := range tr.strs.strs {
			if s != "" && s != "request" && s != "schedule" && s != "rollout" && s != "sim" && s != traceHdr {
				t.Fatalf("string table holds %q", s)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []Event `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("export does not decode: %v\n%s", err, buf.Bytes())
		}
		rendered := func(s string) string {
			b, _ := json.Marshal(s)
			var out string
			json.Unmarshal(b, &out)
			return out
		}
		// kept is the value an ID of 1–16 hex digits keeps, in 16 digits.
		kept := func(id string) (string, bool) {
			v, err := strconv.ParseUint(id, 16, 64)
			if err != nil || len(id) > 16 {
				return "", false
			}
			return formatID(v), true
		}
		ev := doc.TraceEvents
		if len(ev) != 3 || ev[0].Name != "rollout" || ev[1].Name != "request" || ev[2].Name != "rollout" {
			t.Fatalf("exported %+v, want rollout, request, rollout", ev)
		}
		echoed := root.TraceID()
		if want, ok := kept(traceID); ok && echoed != want {
			t.Fatalf("trace %q comes back as %s, want %s", traceID, echoed, want)
		}
		for _, e := range ev[1:] {
			if got := e.Args[ArgTraceID]; got != echoed {
				t.Fatalf("%s: trace_id %v, echoed %s", e.Name, got, echoed)
			}
		}
		rootSpan := formatID(extern(root.span))
		req, child := ev[1].Args, ev[2].Args
		if req[ArgSpanID] != rootSpan || child[ArgParentSpan] != rootSpan {
			t.Fatalf("root span %v, child's parent %v, want both %s", req[ArgSpanID], child[ArgParentSpan], rootSpan)
		}
		_, traceKept := kept(traceID)
		wantParent, parentKept := kept(parent)
		if got, ok := req[ArgParentSpan]; ok != (traceKept && parentKept) || (ok && got != wantParent) {
			t.Fatalf("root's parent_span_id %v (present %v), sent %q under trace %q", got, ok, parent, traceID)
		}
		if got := req["endpoint"]; got != rendered(traceHdr) {
			t.Fatalf("string attribute %q, sent %q", got, traceHdr)
		}
	})
}

// TestSpanIDsExportUnpredictable mints span IDs as the request paths do — a
// root, then four children — and holds what leaves the process to the
// bijection's contract: intern undoes extern, the exported IDs are as
// distinct as the sequence, and consecutive ones are neither a step of one
// apart nor a constant stride apart, so they show no count of requests.
func TestSpanIDsExportUnpredictable(t *testing.T) {
	const n = 100_000
	seen := make(map[uint64]bool, n)
	strides := make(map[uint64]int)
	var link Link
	var prev uint64
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			link = RootLink(NewTraceID(), "")
		} else {
			link = link.Child()
		}
		id := extern(link.span)
		if intern(id) != link.span {
			t.Fatalf("intern(extern(%#x)) = %#x", link.span, intern(id))
		}
		if seen[id] {
			t.Fatalf("span %d exports as %016x, an ID already exported", i, id)
		}
		seen[id] = true
		if i > 0 {
			if d := id - prev; d == 1 || d == math.MaxUint64 {
				t.Fatalf("spans %d and %d export as %016x and %016x, one apart", i-1, i, prev, id)
			} else if strides[d]++; strides[d] > 2 {
				t.Fatalf("%d pairs of consecutive spans export %#x apart", strides[d], d)
			}
		}
		prev = id
	}
}
