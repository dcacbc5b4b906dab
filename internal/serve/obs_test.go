package serve

import (
	"encoding/json"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"readys/internal/core"
	"readys/internal/obs"
	"readys/internal/platform"
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

	// The runtime gauges are /metrics' readys_goroutines and
	// readys_heap_alloc_bytes; there is no JSON snapshot of them.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/runtime", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /debug/runtime with pprof enabled -> %d, want 404", rec.Code)
	}
}

// sample returns the value of the unlabelled sample name in a text
// exposition, failing the test when it is absent.
func sample(t *testing.T, exposition, name string) int {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("exposition has no sample %s", name)
	return 0
}

// TestMetricsPrometheusFormat checks the text exposition, whatever the query
// asks for: readys_-prefixed families with endpoint labels, which count a
// malformed body as a request and an error; the model cache's miss and hit;
// runtime and component gauges; and the readys_decide_* counters, which two
// schedule requests advance by exactly their decisions,
// readys_decide_idle_total by each answer's idle_decisions.
func TestMetricsPrometheusFormat(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	scrape := func(query string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics -> %d", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		return rec.Body.String()
	}
	if before := scrape(""); sample(t, before, "readys_decide_forwards_total")+sample(t, before, "readys_decide_memo_hits_total") != 0 {
		t.Fatalf("decide counters before any request:\n%s", before)
	}
	// On 2 CPUs + 2 GPUs the untrained policy answers ∅ at some decisions.
	writeTestModel(t, s.cfg.ModelsDir, leaseSpec(taskgraph.Cholesky, 4))
	decisions, idle := 0, 0
	for seed := int64(1); seed <= 2; seed++ {
		rec, resp := postSchedule(t, h, ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 2, GPUs: 2, Sigma: 0.2, Seed: seed})
		if rec.Code != http.StatusOK {
			t.Fatalf("schedule -> %d: %s", rec.Code, rec.Body.String())
		}
		decisions += resp.Decisions
		counted := sample(t, scrape(""), "readys_decide_idle_total")
		if counted-idle != resp.IdleDecisions || resp.IdleDecisions == 0 {
			t.Errorf("request %d: readys_decide_idle_total rose by %d, the answer says %d idle decisions", seed, counted-idle, resp.IdleDecisions)
		}
		idle = counted
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(`{`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body -> %d", rec.Code)
	}

	body := scrape("?format=json")
	forwards, hits := sample(t, body, "readys_decide_forwards_total"), sample(t, body, "readys_decide_memo_hits_total")
	if forwards+hits != decisions || forwards == 0 {
		t.Errorf("%d forwards + %d memo hits, the two requests made %d decisions", forwards, hits, decisions)
	}
	if rows, rebuilds := sample(t, body, "readys_decide_window_rows_total"), sample(t, body, "readys_decide_rebuilds_total"); rows < decisions || rebuilds == 0 || rebuilds > decisions {
		t.Errorf("%d window rows and %d rebuilds over %d decisions", rows, rebuilds, decisions)
	}
	if n := sample(t, body, "readys_decide_latency_us_count"); n != decisions {
		t.Errorf("decide latency observed %d times, the requests made %d decisions", n, decisions)
	}
	for _, want := range []string{
		`readys_http_requests_total{endpoint="schedule"} 3` + "\n",
		`readys_http_errors_total{endpoint="schedule"} 1` + "\n",
		`readys_http_latency_ms_count{endpoint="schedule"} 3` + "\n",
		`readys_http_latency_ms_bucket{endpoint="schedule",le="+Inf"} 3` + "\n",
		"readys_schedules_answered_total 2\n",
		"readys_goroutines ",
		"readys_heap_alloc_bytes ",
		"readys_model_cache_hits_total 1\n",
		"readys_model_cache_misses_total 1\n",
		"readys_model_cache_resident 1\n",
		"readys_model_cache_evicted_total 0\n",
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
		"# TYPE readys_decide_forwards_total counter",
		"# TYPE readys_decide_memo_hits_total counter",
		"# TYPE readys_decide_window_rows_total counter",
		"# TYPE readys_decide_rebuilds_total counter",
		"# TYPE readys_decide_idle_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Log(body)
	}
}

// TestServeTraceExport drives two schedule requests and asserts the ring
// exports a loadable Chrome trace holding exactly five stage spans per request
// and no span per decision, so the default ring keeps at least 1 600
// requests whatever their size. Each rollout span counts the request's
// decisions and forwards: as many forwards as a fresh policy runs on the
// same problem, which for the shipped architecture on 2 CPUs + 2 GPUs is
// fewer than there were decisions.
func TestServeTraceExport(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	if perRequest := 5; s.cfg.TraceEvents/perRequest < 1600 {
		t.Fatalf("the default ring of %d records holds %d requests, want ≥ 1 600", s.cfg.TraceEvents, s.cfg.TraceEvents/perRequest)
	}
	spec := leaseSpec(taskgraph.Cholesky, 4)
	writeTestModel(t, s.cfg.ModelsDir, spec)
	agent := core.NewAgent(spec.AgentConfig())
	if _, err := agent.LoadCheckpoint(spec.ModelPath(s.cfg.ModelsDir)); err != nil {
		t.Fatal(err)
	}
	wantForwards := map[int64]float64{} // by request ID, the rollout span's lane
	for seed := int64(1); seed <= 2; seed++ {
		req := ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 2, GPUs: 2, Sigma: 0.2, Seed: seed}
		rec, resp := postSchedule(t, h, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("schedule -> %d: %s", rec.Code, rec.Body.String())
		}
		rid, err := strconv.Atoi(rec.Header().Get("X-Request-ID"))
		if err != nil {
			t.Fatalf("X-Request-ID: %v", err)
		}
		graph, err := req.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		fresh := core.NewPolicy(agent)
		prob := core.Problem{Graph: graph, Platform: platform.New(2, 2), Timing: platform.TimingFor(taskgraph.Cholesky), Sigma: req.Sigma}
		res, err := prob.Simulate(fresh, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Decisions != resp.Decisions {
			t.Fatalf("a fresh policy makes %d decisions, the served one %d", res.Decisions, resp.Decisions)
		}
		wantForwards[int64(rid)] = float64(fresh.Stats.Forwards)
	}

	rec := httptest.NewRecorder()
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
		if e.Ph == obs.PhaseMetadata {
			continue
		}
		spans[e.Name]++
		if e.Name != "rollout" {
			continue
		}
		tasks, decisions, forwards := e.Args["tasks"], e.Args["decisions"].(float64), e.Args["forwards"].(float64)
		if tasks != float64(taskgraph.CholeskyTaskCount(4)) || forwards <= 0 || forwards >= decisions {
			t.Errorf("rollout span of request %v: %v tasks, %v decisions, %v forwards", e.TID, tasks, decisions, forwards)
		}
		if want, ok := wantForwards[e.TID]; !ok || forwards != want {
			t.Errorf("rollout span of request %v counts %v forwards, a fresh policy runs %v", e.TID, forwards, want)
		}
	}
	want := map[string]int{"request": 2, "model_load": 2, "queue_wait": 2, "rollout": 2, "references": 2}
	if !maps.Equal(spans, want) {
		t.Errorf("spans by name %v, want %v: five stage spans a request", spans, want)
	}
}

// TestServeTraceRingIgnoresProbes: a ring sized for one schedule request
// still holds it after many times its capacity in /healthz probes and
// /metrics scrapes, which a gateway and a scraper send whether or not anyone
// schedules, so the ring's window is counted in schedule requests alone.
func TestServeTraceRingIgnoresProbes(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, testSpec(taskgraph.Cholesky, 2, 1, 1))
	s := New(Config{ModelsDir: dir, Workers: 1, Queue: 1, TraceEvents: 5})
	h := s.Handler()
	if rec, _ := postSchedule(t, h, ScheduleRequest{Kind: "cholesky", T: 2, CPUs: 1, GPUs: 1}); rec.Code != http.StatusOK {
		t.Fatalf("schedule -> %d: %s", rec.Code, rec.Body.String())
	}
	for range 20 {
		for _, path := range []string{"/healthz", "/metrics"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s -> %d", path, rec.Code)
			}
		}
	}
	spans := map[string]int{}
	for _, e := range s.tracer.Events() {
		if e.Ph != obs.PhaseMetadata {
			spans[e.Name]++
		}
	}
	want := map[string]int{"request": 1, "model_load": 1, "queue_wait": 1, "rollout": 1, "references": 1}
	if !maps.Equal(spans, want) {
		t.Errorf("after 40 probes and scrapes the ring holds %v, want the schedule request's %v", spans, want)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{`readys_http_requests_total{endpoint="healthz"} 20`, `readys_http_requests_total{endpoint="metrics"} 20`} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("probes are still counted: exposition missing %q", want)
		}
	}
}

// TestServeTraceKeepsForeignIDs: the IDs a client sends are kept by value
// when they are 1–16 hex digits (the benchmark's are short hex), so its spans
// link to ours: the trace ID on every span of the request and in the echoed
// X-Trace-ID, the parent on the request span, all in 16 lowercase digits. Any
// other trace ID starts a fresh trace, echoed, with no parent.
func TestServeTraceKeepsForeignIDs(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	schedule := func(traceID, parent string) (echoed string, events []obs.Event) {
		t.Helper()
		body := strings.NewReader(`{"kind":"cholesky","t":2,"cpus":1,"gpus":1}`)
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", body)
		req.Header.Set(obs.HeaderTraceID, traceID)
		req.Header.Set(obs.HeaderParentSpan, parent)
		rec := httptest.NewRecorder()
		before := s.tracer.Len()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("schedule -> %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Header().Get(obs.HeaderTraceID), s.tracer.Events()[before:]
	}
	check := func(traceID, parent, wantTrace string, wantParent any) {
		t.Helper()
		echoed, events := schedule(traceID, parent)
		if len(echoed) != 16 || (wantTrace != "" && echoed != wantTrace) {
			t.Fatalf("trace %q: response echoes %q, want %q", traceID, echoed, wantTrace)
		}
		var requestSpan string
		for _, e := range events {
			if e.Args[obs.ArgTraceID] != echoed {
				t.Fatalf("span %q carries trace %v, want the echoed %s", e.Name, e.Args[obs.ArgTraceID], echoed)
			}
			if e.Name == "request" {
				requestSpan, _ = e.Args[obs.ArgSpanID].(string)
				if e.Args[obs.ArgParentSpan] != wantParent {
					t.Errorf("trace %q: request span's parent is %v, want %v", traceID, e.Args[obs.ArgParentSpan], wantParent)
				}
			}
		}
		if len(requestSpan) != 16 {
			t.Fatalf("request span ID %q is not 16 hex digits", requestSpan)
		}
		children := 0
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
	check("1A", "b", "000000000000001a", "000000000000000b")
	check("1a", "client/span 7", "000000000000001a", nil)
	check("client/trace 1", "00000000000000bb", "", nil)
}
