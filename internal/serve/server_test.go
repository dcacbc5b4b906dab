package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"readys/internal/core"
	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// newTestServer builds a server over a temp model dir holding small
// checkpoints for cholesky T∈{2,4} on 1c1g and lu T=2 on 1c1g.
func newTestServer(t testing.TB) *Server {
	t.Helper()
	dir := t.TempDir()
	writeTestModel(t, dir, testSpec(taskgraph.Cholesky, 2, 1, 1))
	writeTestModel(t, dir, testSpec(taskgraph.Cholesky, 4, 1, 1))
	writeTestModel(t, dir, testSpec(taskgraph.LU, 2, 1, 1))
	return New(Config{ModelsDir: dir, Workers: 4, Queue: 16, RequestTimeout: 10 * time.Second})
}

func postSchedule(t testing.TB, h http.Handler, req ScheduleRequest) (*httptest.ResponseRecorder, ScheduleResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
	var resp ScheduleResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding response: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, resp
}

func TestServeScheduleHappyPath(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	req := ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1, Sigma: 0.1, Seed: 7}
	rec, resp := postSchedule(t, h, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.CacheHit {
		t.Error("first request must be a cache miss")
	}
	if resp.Makespan <= 0 || resp.HEFTMakespan <= 0 || resp.MCTMakespan <= 0 {
		t.Fatalf("non-positive makespans: %+v", resp)
	}
	g := taskgraph.NewByKind(taskgraph.Cholesky, 4)
	if resp.NumTasks != g.NumTasks() || len(resp.Placements) != g.NumTasks() {
		t.Fatalf("placements %d for %d tasks", len(resp.Placements), g.NumTasks())
	}
	// The served plan must be a feasible schedule.
	res := sim.Result{Makespan: resp.Makespan}
	for _, p := range resp.Placements {
		res.Trace = append(res.Trace, sim.Placement{Task: p.Task, Resource: p.Resource, Start: p.Start, End: p.End})
	}
	if err := sim.ValidateResult(g, 2, res); err != nil {
		t.Fatalf("served plan infeasible: %v", err)
	}

	// Same request again: cache hit, identical plan (deterministic seed).
	rec2, resp2 := postSchedule(t, h, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec2.Code, rec2.Body.String())
	}
	if !resp2.CacheHit {
		t.Error("second request must hit the model cache")
	}
	if resp2.Makespan != resp.Makespan {
		t.Errorf("same seed, different makespans: %g vs %g", resp.Makespan, resp2.Makespan)
	}
}

func TestServeScheduleExplicitDAG(t *testing.T) {
	s := newTestServer(t)
	// A diamond: 0 -> {1,2} -> 3, borrowing cholesky kernel timings, served
	// by the T=2-trained model (train_t).
	req := ScheduleRequest{
		Kind: "cholesky", TrainT: 2, CPUs: 1, GPUs: 1, Sigma: 0, Seed: 3,
		DAG: &DAGSpec{
			Tasks: []DAGTask{{Kernel: 0, Name: "root"}, {Kernel: 1}, {Kernel: 2}, {Kernel: 3, Name: "sink"}},
			Edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
		},
	}
	rec, resp := postSchedule(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.NumTasks != 4 || len(resp.Placements) != 4 {
		t.Fatalf("got %d tasks, %d placements", resp.NumTasks, len(resp.Placements))
	}
	if resp.Placements[0].Name != "root" {
		t.Errorf("task names not echoed: %+v", resp.Placements[0])
	}
}

func TestServeScheduleErrors(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"unknown field", `{"kind":"cholesky","t":4,"cpus":1,"gpus":1,"bogus":1}`, http.StatusBadRequest},
		{"missing kind", `{"t":4,"cpus":1,"gpus":1}`, http.StatusBadRequest},
		{"bad kind", `{"kind":"fft","t":4,"cpus":1,"gpus":1}`, http.StatusBadRequest},
		{"t=0", `{"kind":"cholesky","cpus":1,"gpus":1}`, http.StatusBadRequest},
		{"empty platform", `{"kind":"cholesky","t":4}`, http.StatusBadRequest},
		{"negative sigma", `{"kind":"cholesky","t":4,"cpus":1,"gpus":1,"sigma":-1}`, http.StatusBadRequest},
		{"no such model", `{"kind":"qr","t":4,"cpus":1,"gpus":1}`, http.StatusNotFound},
		{"dag without train_t", `{"kind":"cholesky","cpus":1,"gpus":1,"dag":{"tasks":[{"kernel":0}],"edges":[]}}`, http.StatusBadRequest},
		{"dag bad kernel", `{"kind":"cholesky","train_t":2,"cpus":1,"gpus":1,"dag":{"tasks":[{"kernel":9}],"edges":[]}}`, http.StatusBadRequest},
		{"dag cyclic", `{"kind":"cholesky","train_t":2,"cpus":1,"gpus":1,"dag":{"tasks":[{"kernel":0},{"kernel":1}],"edges":[[0,1],[1,0]]}}`, http.StatusBadRequest},
		{"dag edge out of range", `{"kind":"cholesky","train_t":2,"cpus":1,"gpus":1,"dag":{"tasks":[{"kernel":0}],"edges":[[0,5]]}}`, http.StatusBadRequest},
		{"trailing object", `{"kind":"cholesky","t":4,"cpus":1,"gpus":1}{"t":8}`, http.StatusBadRequest},
		{"trailing junk", `{"kind":"cholesky","t":4,"cpus":1,"gpus":1} junk`, http.StatusBadRequest},
		{"body over MaxBodyBytes", `{"kind":"cholesky","t":4,"cpus":1,"gpus":1` + strings.Repeat(" ", 1<<20) + `}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader([]byte(tc.body))))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body.String())
			}
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error envelope missing: %s", rec.Body.String())
			}
		})
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/schedule", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule -> %d, want 405", rec.Code)
	}
}

func TestServeModelsAndHealthz(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz -> %d", rec.Code)
	}
	var health struct {
		Status        string        `json:"status"`
		Build         obs.BuildInfo `json:"build"`
		UptimeSeconds *float64      `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status %q", health.Status)
	}
	if health.Build.Go == "" {
		t.Errorf("healthz build info missing go version: %+v", health.Build)
	}
	if health.UptimeSeconds == nil || *health.UptimeSeconds < 0 {
		t.Errorf("healthz uptime_seconds missing or negative: %v", health.UptimeSeconds)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("models -> %d: %s", rec.Code, rec.Body.String())
	}
	var models ModelsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 3 {
		t.Fatalf("listed %d models, want 3", len(models.Models))
	}
	for _, m := range models.Models {
		if m.Loaded {
			t.Errorf("model %s loaded before any request", m.Name)
		}
	}
}

func TestServeMetrics(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	for i := 0; i < 3; i++ {
		rec, _ := postSchedule(t, h, ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1, Seed: int64(i)})
		if rec.Code != http.StatusOK {
			t.Fatalf("schedule %d -> %d", i, rec.Code)
		}
	}
	// One failing request to populate error counters.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader([]byte(`{`))))

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics -> %d", rec.Code)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	// byEndpoint reads a labelled family's "schedule" child.
	byEndpoint := func(family string) any {
		children, _ := m[family].(map[string]any)
		return children["schedule"]
	}
	if got := byEndpoint("readys_http_requests_total"); got != 4.0 {
		t.Errorf("schedule requests = %v, want 4 in %s", got, rec.Body.String())
	}
	if got := byEndpoint("readys_http_errors_total"); got != 1.0 {
		t.Errorf("schedule errors = %v, want 1", got)
	}
	lat, _ := byEndpoint("readys_http_latency_ms").(map[string]any)
	if buckets, _ := lat["buckets"].(map[string]any); lat["count"] != 4.0 || buckets["+Inf"] != 4.0 {
		t.Errorf("latency histogram wrong: %v", lat)
	}
	for family, want := range map[string]float64{
		"readys_model_cache_hits_total":    2,
		"readys_model_cache_misses_total":  1,
		"readys_model_cache_evicted_total": 0,
		"readys_model_cache_resident":      1,
		"readys_schedules_answered_total":  3,
	} {
		if got, ok := m[family]; !ok || got != want {
			t.Errorf("%s = %v, want %v", family, got, want)
		}
	}
}

func TestServeBackpressure(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, testSpec(taskgraph.Cholesky, 4, 1, 1))
	s := New(Config{ModelsDir: dir, Workers: 1, Queue: 1, RequestTimeout: 10 * time.Second})
	h := s.Handler()

	// Deterministically saturate the pool: park the single worker on a
	// blocked job and fill the one queue slot, then an HTTP request must be
	// rejected with 503 immediately.
	block := make(chan struct{})
	started := make(chan struct{})
	go s.pool.Do(context.Background(), func() { close(started); <-block })
	<-started
	go s.pool.Do(context.Background(), func() {})
	for deadline := time.Now().Add(5 * time.Second); s.pool.Queued() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("queue slot never filled")
		}
		time.Sleep(time.Millisecond)
	}

	rec, _ := postSchedule(t, h, ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated pool -> %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("saturated pool: Retry-After %q, want \"1\"", ra)
	}
	close(block)

	// Once the pool clears, the same request succeeds and the rejection is
	// visible in the metrics.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, _ = postSchedule(t, h, ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1})
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered: %d %s", rec.Code, rec.Body.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.metrics.rejected.Value(); n < 1 {
		t.Fatalf("rejection not counted: %d", n)
	}
}

func TestServeGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	// Launch requests, then shut down while they are in flight: every
	// accepted request must still be answered 200.
	const clients = 6
	codes := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, _ := postSchedule(t, h, ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1, Sigma: 0.1, Seed: int64(i)})
			codes <- rec.Code
		}(i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(codes)
	var ok, unavailable int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			unavailable++
		default:
			t.Fatalf("request -> %d during drain", c)
		}
	}
	if ok+unavailable != clients {
		t.Fatalf("ok=%d unavailable=%d of %d", ok, unavailable, clients)
	}

	// After the drain, new work is refused.
	rec, _ := postSchedule(t, h, ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown schedule -> %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("post-shutdown schedule: Retry-After %q, want \"1\"", ra)
	}
	// Liveness and metrics stay up for the supervisor.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("healthz during drain -> %d", rec2.Code)
	}
}

func TestServeRequestTimeout(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, testSpec(taskgraph.Cholesky, 8, 1, 1))
	// A nanosecond deadline cannot fit a T=8 rollout.
	s := New(Config{ModelsDir: dir, Workers: 1, Queue: 4, RequestTimeout: time.Nanosecond})
	rec, _ := postSchedule(t, s.Handler(), ScheduleRequest{Kind: "cholesky", T: 8, CPUs: 1, GPUs: 1})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
}

// TestServedPlanMatchesDirectSchedule pins the serving path to the library
// path: the same model, problem and seed must produce the same makespan
// through HTTP as through core directly.
func TestServedPlanMatchesDirectSchedule(t *testing.T) {
	s := newTestServer(t)
	rec, resp := postSchedule(t, s.Handler(), ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1, Sigma: 0.2, Seed: 99})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}

	lease, _, err := s.Registry().Acquire(taskgraph.Cholesky, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	prob := core.Problem{
		Graph:    taskgraph.NewByKind(taskgraph.Cholesky, 4),
		Platform: platform.New(1, 1),
		Timing:   platform.TimingFor(taskgraph.Cholesky),
		Sigma:    0.2,
	}
	direct, err := prob.Simulate(core.NewPolicy(lease.Agent()), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Makespan != resp.Makespan {
		t.Fatalf("served %g vs direct %g", resp.Makespan, direct.Makespan)
	}
}
