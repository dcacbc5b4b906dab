package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"readys/internal/obs"
	"readys/internal/taskgraph"
)

// TestDebugRoutes404WhenDisabled pins the default posture: without
// EnablePprof the profiling surface does not exist.
func TestDebugRoutes404WhenDisabled(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile", "/debug/runtime"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s with pprof disabled -> %d, want 404", path, rec.Code)
		}
	}
}

func TestDebugRoutesEnabled(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, testSpec(taskgraph.Cholesky, 4, 1, 1))
	s := New(Config{ModelsDir: dir, EnablePprof: true})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ -> %d, want 200", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/runtime", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/runtime -> %d", rec.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if vars["goroutines"].(float64) < 1 || vars["heap_alloc_bytes"].(float64) <= 0 {
		t.Fatalf("runtime gauges implausible: %v", vars)
	}
}

// TestMetricsPrometheusFormat checks the text exposition: readys_-prefixed
// families with endpoint labels, plus runtime and component gauges.
func TestMetricsPrometheusFormat(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	rec, _ := postSchedule(t, h, ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule -> %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics?format=prometheus -> %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`readys_http_requests_total{endpoint="schedule"} 1`,
		`readys_http_errors_total{endpoint="schedule"} 0`,
		`readys_http_latency_ms_bucket{endpoint="schedule",le="+Inf"} 1`,
		"readys_schedules_answered_total 1",
		"readys_goroutines ",
		"readys_heap_alloc_bytes ",
		"readys_model_cache_resident 1",
		"readys_model_cache_evicted_total 0",
		"readys_pool_queued 0",
		"# TYPE readys_http_latency_ms histogram",
		// Per-decision inference latency: the sub-100µs serving buckets must
		// exist, and every decision of the schedule request must be counted.
		"# TYPE readys_decide_latency_us histogram",
		`readys_decide_latency_us_bucket{le="5"} `,
		`readys_decide_latency_us_bucket{le="10"} `,
		`readys_decide_latency_us_bucket{le="25"} `,
		`readys_decide_latency_us_bucket{le="50"} `,
		`readys_decide_latency_us_bucket{le="100"} `,
		`readys_decide_latency_us_bucket{le="250"} `,
		`readys_decide_latency_us_bucket{le="1000"} `,
		`readys_decide_latency_us_bucket{le="10000"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Log(body)
	}
}

// TestServeTraceExport drives one schedule request and asserts the ring
// exports a loadable Chrome trace containing the request's spans — including
// per-decision inference slices — all tagged with the request ID from the
// X-Request-ID header.
func TestServeTraceExport(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	rec, _ := postSchedule(t, h, ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule -> %d: %s", rec.Code, rec.Body.String())
	}
	rid := rec.Header().Get("X-Request-ID")
	if rid == "" {
		t.Fatal("no X-Request-ID header")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/trace -> %d", rec.Code)
	}
	data := rec.Body.Bytes()
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("trace invalid: %v\n%.400s", err, data)
	}
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, e := range doc.TraceEvents {
		spans[e.Name]++
	}
	for _, want := range []string{"request", "queue_wait", "model_load", "rollout", "references", "decide"} {
		if spans[want] == 0 {
			t.Errorf("trace has no %q span (got %v)", want, spans)
		}
	}
	if spans["decide"] < 2 {
		t.Errorf("expected per-decision spans, got %d", spans["decide"])
	}
}

// TestServeTraceKeepsForeignIDs: the IDs a client sends are its own — the
// benchmark's are short hex, another tracer's may be anything — and its spans
// only link to ours if the export names them exactly as sent: the trace ID on
// every span of the request, the parent on the request span.
func TestServeTraceKeepsForeignIDs(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	body := strings.NewReader(`{"kind":"cholesky","t":2,"cpus":1,"gpus":1}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", body)
	req.Header.Set(obs.HeaderTraceID, "1a")
	req.Header.Set(obs.HeaderParentSpan, "client/span 7")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule -> %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.HeaderTraceID); got != "1a" {
		t.Errorf("response echoes trace %q, want 1a", got)
	}

	var requestSpan string
	children := 0
	events := s.tracer.Events()
	for _, e := range events {
		if e.Args[obs.ArgTraceID] != "1a" {
			t.Fatalf("span %q carries trace %v, want the client's 1a", e.Name, e.Args[obs.ArgTraceID])
		}
		if e.Name == "request" {
			requestSpan, _ = e.Args[obs.ArgSpanID].(string)
			if e.Args[obs.ArgParentSpan] != "client/span 7" {
				t.Errorf("request span's parent is %v, want the client's span verbatim", e.Args[obs.ArgParentSpan])
			}
		}
	}
	if len(requestSpan) != 16 {
		t.Fatalf("request span ID %q is not 16 hex digits", requestSpan)
	}
	for _, e := range events {
		if e.Name != "request" {
			children++
			if e.Args[obs.ArgParentSpan] != requestSpan {
				t.Errorf("%q span's parent is %v, want the request span %s", e.Name, e.Args[obs.ArgParentSpan], requestSpan)
			}
		}
	}
	if children < 4 {
		t.Errorf("only %d child spans recorded", children)
	}
}
