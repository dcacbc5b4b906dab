package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"readys/internal/obs"
)

// TestTwoProcessTraceStitch runs a real train job through an httptest
// dispatcher and a worker — two separate span rings, like two processes —
// then merges their exports and requires the distributed trace to stitch:
// balanced lanes, every parent span resolving, and at least one parent link
// crossing the dispatcher/worker boundary.
func TestTwoProcessTraceStitch(t *testing.T) {
	d := newTestDispatcher(t, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Submit over HTTP with an upstream trace context, as a traced client
	// (e.g. readys-serve or a CI driver) would — recording the root span in
	// the client's own ring, the third "process" of the merge.
	client := NewClient(srv.URL)
	rootSC := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	clientTracer := obs.NewTracer(0)
	clientTracer.NameProcess(1, "test-client")
	client.SetTraceContext(rootSC)
	submitStart := time.Now()
	job, _, err := client.Submit(trainJob(0))
	if err != nil {
		t.Fatal(err)
	}
	client.ClearTraceContext()
	clientTracer.Complete("submit", "client", 1, 1, 0,
		float64(time.Since(submitStart))/float64(time.Microsecond),
		obs.SpanArgs(nil, rootSC.TraceID, rootSC.SpanID, ""))
	if job.TraceID != rootSC.TraceID {
		t.Fatalf("job did not adopt the submitted trace: %q != %q", job.TraceID, rootSC.TraceID)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, done := startWorker(t, ctx, WorkerConfig{Dispatcher: srv.URL, Name: "stitch"})
	waitForState(t, d, job.ID, StateDone, time.Minute)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker shutdown: %v", err)
	}

	var cb, db, wb bytes.Buffer
	if err := clientTracer.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteTrace(&db); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrace(&wb); err != nil {
		t.Fatal(err)
	}

	// Each export alone is structurally valid but must NOT pass link
	// validation: the worker's parents live in the dispatcher's ring.
	for _, doc := range [][]byte{db.Bytes(), wb.Bytes()} {
		if err := obs.ValidateChromeTrace(doc); err != nil {
			t.Fatalf("per-process trace invalid: %v", err)
		}
	}
	if err := obs.ValidateTraceLinks(wb.Bytes()); err == nil {
		t.Error("worker-only trace should have dangling parents before the merge")
	}

	merged, err := obs.MergeTraces(cb.Bytes(), db.Bytes(), wb.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(merged); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if err := obs.ValidateTraceLinks(merged); err != nil {
		t.Fatalf("merged trace links: %v", err)
	}

	// The whole distributed chain must live in the submitted trace ID, and
	// the worker's execute span must parent to the dispatcher's job span.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(merged, &doc); err != nil {
		t.Fatal(err)
	}
	var sawExecute bool
	for _, e := range doc.TraceEvents {
		trace, _ := e.Args[obs.ArgTraceID].(string)
		if e.Name == "execute" {
			sawExecute = true
			if trace != rootSC.TraceID {
				t.Errorf("execute span in trace %q, want %q", trace, rootSC.TraceID)
			}
			if parent, _ := e.Args[obs.ArgParentSpan].(string); parent != job.SpanID {
				t.Errorf("execute span parent %q, want the job span %q", parent, job.SpanID)
			}
		}
	}
	if !sawExecute {
		t.Error("merged trace has no worker execute span")
	}
}

// TestDispatcherHealthzBuildInfo checks the /healthz payload carries build
// identity and uptime next to the status (ISSUE 7 satellite b).
func TestDispatcherHealthzBuildInfo(t *testing.T) {
	d := newTestDispatcher(t, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz -> %d", resp.StatusCode)
	}
	var body struct {
		Status        string        `json:"status"`
		Build         obs.BuildInfo `json:"build"`
		UptimeSeconds *float64      `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status %q", body.Status)
	}
	if body.Build.Go == "" {
		t.Errorf("build info missing go version: %+v", body.Build)
	}
	if body.UptimeSeconds == nil || *body.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds missing or negative: %v", body.UptimeSeconds)
	}
}

// TestSubmitWithoutUpstreamTraceMintsOne: a plain Submit (no incoming
// headers) must still put the job on a fresh trace so worker spans stitch.
func TestSubmitWithoutUpstreamTraceMintsOne(t *testing.T) {
	d := newTestDispatcher(t, nil)
	job, _, err := d.submit(trainJob(0), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if job.TraceID == "" || job.SpanID == "" {
		t.Fatalf("untraced submit left job without trace identity: %+v", job)
	}
}
