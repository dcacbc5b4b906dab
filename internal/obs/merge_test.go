package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// twoProcessDocs builds a dispatcher-like and a worker-like export, both
// recorded under local pid 1 (the collision MergeTraces must resolve), with
// the worker's span parented to the dispatcher's via trace context args.
func twoProcessDocs(t *testing.T) (disp, work []byte) {
	t.Helper()
	d := NewTracer(0)
	d.NameProcess(1, "dispatcher")
	d.Complete("request", "request", 1, 1, 0, 100,
		SpanArgs(map[string]any{"path": "/v1/jobs"}, "trace1", "spanA", ""))

	w := NewTracer(0)
	w.NameProcess(1, "worker")
	w.Complete("execute", "job", 1, 1, 50, 40,
		SpanArgs(map[string]any{"job_id": "j000001"}, "trace1", "spanB", "spanA"))

	var db, wb bytes.Buffer
	if err := d.WriteChromeTrace(&db); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChromeTrace(&wb); err != nil {
		t.Fatal(err)
	}
	return db.Bytes(), wb.Bytes()
}

func TestMergeTracesStitchesProcesses(t *testing.T) {
	disp, work := twoProcessDocs(t)
	merged, err := MergeTraces(disp, work)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(merged); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if err := ValidateTraceLinks(merged); err != nil {
		t.Fatalf("merged trace links: %v", err)
	}

	// Both inputs recorded under local pid 1; the merge must keep their
	// lanes disjoint or span balance would be cross-contaminated.
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			PID  int64          `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(merged, &doc); err != nil {
		t.Fatal(err)
	}
	pids := map[int64]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != PhaseMetadata {
			pids[e.PID] = true
		}
	}
	if len(pids) != 2 {
		t.Fatalf("merged trace has %d distinct pids, want 2 (lanes must stay disjoint)", len(pids))
	}
	if got, ok := doc.OtherData["merged_from"].(float64); !ok || got != 2 {
		t.Errorf("otherData merged_from = %v, want 2", doc.OtherData["merged_from"])
	}
}

func TestMergeTracesRejectsBadInput(t *testing.T) {
	if _, err := MergeTraces(); err == nil {
		t.Error("merging zero documents should fail")
	}
	if _, err := MergeTraces([]byte("{not json")); err == nil {
		t.Error("invalid JSON input should fail")
	}
	if _, err := MergeTraces([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Error("empty trace input should fail")
	}
}

func TestValidateTraceLinksDanglingParent(t *testing.T) {
	// A single-process export whose span points at a parent recorded in
	// another process's ring: fine structurally, an error for -links.
	tr := NewTracer(0)
	tr.Complete("execute", "job", 1, 1, 0, 10,
		SpanArgs(nil, "trace1", "spanB", "missing-parent"))
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(b.Bytes()); err != nil {
		t.Fatalf("structure should validate: %v", err)
	}
	err := ValidateTraceLinks(b.Bytes())
	if err == nil || !strings.Contains(err.Error(), "parent span missing-parent not found") {
		t.Fatalf("dangling parent not reported: %v", err)
	}
}

func TestValidateTraceLinksRequiresContextAndLinks(t *testing.T) {
	tr := NewTracer(0)
	tr.Complete("plain", "work", 1, 1, 0, 10, nil)
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceLinks(b.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "no spans carrying trace context") {
		t.Errorf("context-free trace: %v", err)
	}

	tr2 := NewTracer(0)
	tr2.Complete("root", "work", 1, 1, 0, 10, SpanArgs(nil, "trace1", "spanA", ""))
	var b2 bytes.Buffer
	if err := tr2.WriteChromeTrace(&b2); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceLinks(b2.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "no parent links") {
		t.Errorf("link-free trace: %v", err)
	}
}

func TestValidateTraceLinksDemandsCrossProcessLink(t *testing.T) {
	// Two processes whose links all stay process-local: the stitch failed
	// even though every parent resolves.
	d := NewTracer(0)
	d.Complete("a", "work", 1, 1, 0, 10, SpanArgs(nil, "t1", "s1", ""))
	d.Complete("b", "work", 1, 1, 20, 10, SpanArgs(nil, "t1", "s2", "s1"))
	w := NewTracer(0)
	w.Complete("c", "work", 1, 1, 0, 10, SpanArgs(nil, "t2", "s3", ""))
	w.Complete("d", "work", 1, 1, 20, 10, SpanArgs(nil, "t2", "s4", "s3"))
	var db, wb bytes.Buffer
	if err := d.WriteChromeTrace(&db); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChromeTrace(&wb); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeTraces(db.Bytes(), wb.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceLinks(merged); err == nil ||
		!strings.Contains(err.Error(), "no parent link crosses a process boundary") {
		t.Errorf("local-only links should fail multi-process validation: %v", err)
	}
}

func TestSpanContextHeaderRoundTrip(t *testing.T) {
	sc := RootLink(NewTraceID(), "").Context()
	if sc.TraceID == "" || sc.SpanID == "" || sc.TraceID == sc.SpanID {
		t.Fatalf("degenerate ids: %+v", sc)
	}
	h := make(map[string][]string)
	sc.Inject(h)
	trace, parent, ok := ExtractTraceContext(h)
	if !ok || trace != sc.TraceID || parent != sc.SpanID {
		t.Fatalf("round trip: got (%q, %q, %v), want (%q, %q, true)", trace, parent, ok, sc.TraceID, sc.SpanID)
	}
	if _, _, ok := ExtractTraceContext(map[string][]string{}); ok {
		t.Error("empty headers should not extract")
	}
}

func TestSpanArgsOmitsEmptyParent(t *testing.T) {
	a := SpanArgs(map[string]any{"k": "v"}, "t", "s", "")
	if _, ok := a[ArgParentSpan]; ok {
		t.Error("empty parent must be omitted, not recorded as \"\"")
	}
	if a["k"] != "v" || a[ArgTraceID] != "t" || a[ArgSpanID] != "s" {
		t.Errorf("args mangled: %v", a)
	}
	b := SpanArgs(nil, "t", "s", "p")
	if b[ArgParentSpan] != "p" {
		t.Errorf("parent lost: %v", b)
	}
}

// SpanArgs merges span identity into a (possibly nil) args map, as a span
// export renders it: trace_id and span_id always, parent_span_id only when
// non-empty. The input map is returned when non-nil (mutated in place). It
// gives the map-taking Tracer methods the identity Tracer.Span records from a
// Link.
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
