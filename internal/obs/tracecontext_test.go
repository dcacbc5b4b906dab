package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// FuzzTraceContext feeds arbitrary trace-context header bytes down the path a
// request takes — ExtractTraceContext, RootLink, a root and a child Span,
// WriteChromeTrace — and requires the export to decode with trace_id and
// parent_span_id as encoding/json renders what the client sent, whether or
// not it is a canonical ID. The ring holds three records and is written twice,
// so the second root overwrites the first and the strings they share must
// outlive the record that interned them, counted exactly (checkStrtab).
func FuzzTraceContext(f *testing.F) {
	f.Fuzz(func(t *testing.T, traceHdr, parentHdr string) {
		h := http.Header{}
		h.Set(HeaderTraceID, traceHdr)
		h.Set(HeaderParentSpan, parentHdr)
		traceID, parent, _ := ExtractTraceContext(h)
		if traceID == "" {
			traceID = NewTraceID() // what serve and the gateway do
		}
		tr := NewTracer(3)
		var root Link
		for pass := 0; pass < 2; pass++ {
			root = RootLink(traceID, parent)
			tr.Span("request", "schedule", 1, 1, 0, 2, root, String(KeyEndpoint, traceHdr))
			tr.Span("rollout", "sim", 1, 1, 1, 1, root.Context().Child(), Int(KeyForwards, 3))
		}
		checkStrtab(t, tr)
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
		rootSpan := formatID(root.span)
		ev := doc.TraceEvents
		if len(ev) != 3 || ev[0].Name != "rollout" || ev[1].Name != "request" || ev[2].Name != "rollout" {
			t.Fatalf("exported %+v, want rollout, request, rollout", ev)
		}
		for _, e := range ev {
			if got := e.Args[ArgTraceID]; got != rendered(traceID) {
				t.Fatalf("%s: trace_id %q, sent %q", e.Name, got, traceID)
			}
		}
		req, child := ev[1].Args, ev[2].Args
		if req[ArgSpanID] != rootSpan || child[ArgParentSpan] != rootSpan {
			t.Fatalf("root span %v, child's parent %v, want both %s", req[ArgSpanID], child[ArgParentSpan], rootSpan)
		}
		if got, ok := req[ArgParentSpan]; ok != (parent != "") || (ok && got != rendered(parent)) {
			t.Fatalf("root's parent_span_id %q (present %v), sent %q", got, ok, parent)
		}
		if got := req["endpoint"]; got != rendered(traceHdr) {
			t.Fatalf("string attribute %q, sent %q", got, traceHdr)
		}
	})
}
