package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// traceDoc is one process's Chrome trace export of events, named process
// under pid 1 when process is set. The merge and the link validator read
// exports of any exporter, whose IDs need not be this package's 16 hex
// digits, so the tests write their events literally.
func traceDoc(t *testing.T, process string, events ...Event) []byte {
	t.Helper()
	doc := chromeTrace{DisplayTimeUnit: "ms"}
	if process != "" {
		doc.TraceEvents = append(doc.TraceEvents, Event{Name: "process_name", Ph: PhaseMetadata, PID: 1, Args: map[string]any{"name": process}})
	}
	doc.TraceEvents = append(doc.TraceEvents, events...)
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// slice is a complete slice on lane (1, 1) with args.
func slice(name, cat string, ts, dur float64, args map[string]any) Event {
	return Event{Name: name, Cat: cat, Ph: PhaseComplete, TS: ts, Dur: dur, PID: 1, TID: 1, Args: args}
}

// twoProcessDocs builds a dispatcher-like and a worker-like export, both
// recorded under local pid 1 (the collision MergeTraces must resolve), with
// the worker's span parented to the dispatcher's via trace context args.
func twoProcessDocs(t *testing.T) (disp, work []byte) {
	t.Helper()
	disp = traceDoc(t, "dispatcher", slice("request", "request", 0, 100,
		SpanArgs(map[string]any{"path": "/v1/jobs"}, "trace1", "spanA", "")))
	work = traceDoc(t, "worker", slice("execute", "job", 50, 40,
		SpanArgs(map[string]any{"job_id": "j000001"}, "trace1", "spanB", "spanA")))
	return disp, work
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
	data := traceDoc(t, "", slice("execute", "job", 0, 10, SpanArgs(nil, "trace1", "spanB", "missing-parent")))
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("structure should validate: %v", err)
	}
	err := ValidateTraceLinks(data)
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

	rootOnly := traceDoc(t, "", slice("root", "work", 0, 10, SpanArgs(nil, "trace1", "spanA", "")))
	if err := ValidateTraceLinks(rootOnly); err == nil ||
		!strings.Contains(err.Error(), "no parent links") {
		t.Errorf("link-free trace: %v", err)
	}
}

func TestValidateTraceLinksDemandsCrossProcessLink(t *testing.T) {
	// Two processes whose links all stay process-local: the stitch failed
	// even though every parent resolves.
	d := traceDoc(t, "",
		slice("a", "work", 0, 10, SpanArgs(nil, "t1", "s1", "")),
		slice("b", "work", 20, 10, SpanArgs(nil, "t1", "s2", "s1")))
	w := traceDoc(t, "",
		slice("c", "work", 0, 10, SpanArgs(nil, "t2", "s3", "")),
		slice("d", "work", 20, 10, SpanArgs(nil, "t2", "s4", "s3")))
	merged, err := MergeTraces(d, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceLinks(merged); err == nil ||
		!strings.Contains(err.Error(), "no parent link crosses a process boundary") {
		t.Errorf("local-only links should fail multi-process validation: %v", err)
	}
}

// TestSpanContextHeaderRoundTrip: Inject writes the trace ID and the span ID
// as the export shows it (extern of the stored one), and ExtractTraceContext
// reads back what Inject wrote.
func TestSpanContextHeaderRoundTrip(t *testing.T) {
	link := RootLink(NewTraceID(), "")
	traceID, spanID := link.TraceID(), formatID(extern(link.span))
	if len(traceID) != 16 || traceID == spanID {
		t.Fatalf("degenerate ids: %q, %q", traceID, spanID)
	}
	h := make(map[string][]string)
	link.Inject(h)
	trace, parent, ok := ExtractTraceContext(h)
	if !ok || trace != traceID || parent != spanID {
		t.Fatalf("round trip: got (%q, %q, %v), want (%q, %q, true)", trace, parent, ok, traceID, spanID)
	}
	if _, _, ok := ExtractTraceContext(map[string][]string{}); ok {
		t.Error("empty headers should not extract")
	}
	h = make(map[string][]string)
	if (Link{}).Inject(h); len(h) != 0 {
		t.Errorf("the zero Link injected %v", h)
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
// writes the Args of the literal events the export and link tests expect.
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
