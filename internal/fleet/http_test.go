package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"readys/internal/obs"
)

// newTestServer wires a dispatcher behind httptest and returns a typed
// client for it.
func newTestServer(t *testing.T, mutate func(*Config)) (*Dispatcher, *Client) {
	t.Helper()
	d := newTestDispatcher(t, mutate)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, NewClient(srv.URL)
}

// TestHTTPLifecycle drives one job through the full wire protocol:
// register → submit → lease → heartbeat → upload → complete → inspect.
func TestHTTPLifecycle(t *testing.T) {
	_, client := newTestServer(t, nil)

	workerID, ttl, err := client.Register("httptest")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(workerID, "-httptest") || ttl <= 0 {
		t.Fatalf("register = (%q, %s)", workerID, ttl)
	}

	job, dup, err := client.Submit(figureJob("figure7", 3))
	if err != nil || dup {
		t.Fatalf("submit = (dup=%v, err=%v)", dup, err)
	}
	if _, dup, _ := client.Submit(figureJob("figure7", 3)); !dup {
		t.Fatal("wire resubmission not deduplicated")
	}

	leased, leaseTTL, err := client.Lease(workerID)
	if err != nil || leased == nil || leased.ID != job.ID {
		t.Fatalf("lease = (%v, %v)", leased, err)
	}
	if leaseTTL <= 0 {
		t.Fatalf("lease TTL = %s", leaseTTL)
	}
	// Queue drained: the next lease answers 204 → (nil, nil).
	if empty, _, err := client.Lease(workerID); err != nil || empty != nil {
		t.Fatalf("empty lease = (%v, %v), want (nil, nil)", empty, err)
	}

	if err := client.Heartbeat(workerID, job.ID, &Progress{Episode: 1, Episodes: 2}); err != nil {
		t.Fatal(err)
	}
	data := []byte("figure rows,go,here\n")
	digest, err := client.PutArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Complete(workerID, job.ID, map[string]string{ArtifactResult: digest}, json.RawMessage(`{"rows":1}`)); err != nil {
		t.Fatal(err)
	}

	got, err := client.Job(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Artifacts[ArtifactResult] != digest {
		t.Fatalf("job after completion: %+v", got)
	}
	back, err := client.GetArtifact(digest)
	if err != nil || string(back) != string(data) {
		t.Fatalf("artifact round-trip = (%q, %v)", back, err)
	}
	var all JobsResponse
	if _, err := client.doIdempotent(http.MethodGet, "/v1/jobs", nil, &all, http.StatusOK); err != nil || len(all.Jobs) != 1 {
		t.Fatalf("jobs listing = (%d, %v)", len(all.Jobs), err)
	}
	if err := client.Deregister(workerID); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	d, client := newTestServer(t, nil)
	base := client.BaseURL

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	cases := []struct {
		name string
		resp *http.Response
		want int
	}{
		{"unknown job", get("/v1/jobs/j999999"), http.StatusNotFound},
		{"malformed digest", get("/v1/artifacts/zz"), http.StatusBadRequest},
		{"absent artifact", get("/v1/artifacts/" + strings.Repeat("a", 64)), http.StatusNotFound},
		{"invalid submit", post("/v1/jobs", `{"spec":{"type":"train"}}`), http.StatusBadRequest},
		{"unknown submit field", post("/v1/jobs", `{"bogus":1}`), http.StatusBadRequest},
		{"unregistered lease", post("/v1/lease", `{"worker_id":"w9999-ghost"}`), http.StatusNotFound},
		{"zombie heartbeat", post("/v1/heartbeat", `{"worker_id":"w9999-ghost","job_id":"j000001"}`), http.StatusConflict},
		{"method not allowed", post("/healthz", `{}`), http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		if c.resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, c.resp.StatusCode, c.want)
		}
		if c.resp.Header.Get("X-Request-ID") == "" {
			t.Errorf("%s: no X-Request-ID header", c.name)
		}
	}

	// Client-level mapping: a heartbeat for a lease the worker lost is
	// surfaced as ErrLeaseLost, not a generic error.
	w := d.Register("mapper")
	if err := client.Heartbeat(w.ID, "j000042", nil); err != ErrLeaseLost {
		t.Fatalf("client heartbeat mapping: %v, want ErrLeaseLost", err)
	}

	// A completion citing a never-uploaded artifact is the client's fault:
	// 412 on the wire, ErrArtifactMissing from the typed client — not a 500.
	job, _, err := client.Submit(figureJob("figure7", 0))
	if err != nil {
		t.Fatal(err)
	}
	if leased, _, err := client.Lease(w.ID); err != nil || leased == nil {
		t.Fatalf("lease = (%v, %v)", leased, err)
	}
	resp, err := http.Post(base+"/v1/complete", "application/json",
		strings.NewReader(`{"worker_id":"`+w.ID+`","job_id":"`+job.ID+`","artifacts":{"result":"`+strings.Repeat("a", 64)+`"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("complete with missing artifact: status %d, want 412", resp.StatusCode)
	}
	err = client.Complete(w.ID, job.ID, map[string]string{ArtifactResult: strings.Repeat("b", 64)}, nil)
	if !errors.Is(err, ErrArtifactMissing) {
		t.Fatalf("client complete mapping: %v, want ErrArtifactMissing", err)
	}
}

func TestHTTPMetricsAndTrace(t *testing.T) {
	d, client := newTestServer(t, nil)
	w := d.Register("observer")
	if _, _, err := client.Submit(figureJob("figure7", 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Lease(w.ID); err != nil {
		t.Fatal(err)
	}

	// JSON: the registry's families.
	resp, err := http.Get(client.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Running int `json:"fleet_jobs_running"`
		Workers int `json:"fleet_workers_registered"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Running != 1 || snap.Workers != 1 {
		t.Fatalf("metrics JSON = %+v", snap)
	}

	// Prometheus exposition.
	resp2, err := http.Get(client.BaseURL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("prometheus content type = %q", ct)
	}
	text := readAll(t, resp2)
	for _, want := range []string{
		"fleet_queue_depth 0",
		"fleet_jobs_running 1",
		"fleet_workers_registered 1",
		`fleet_jobs_submitted_total{type="figure"} 1`,
		`fleet_http_requests_total{endpoint="jobs"} 1`,
		"# TYPE fleet_job_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Chrome trace export carries the instrumented request spans.
	resp3, err := http.Get(client.BaseURL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	trace := readAll(t, resp3)
	var export struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &export); err != nil {
		t.Fatalf("trace is not valid trace-event JSON: %v", err)
	}
	found := false
	for _, ev := range export.TraceEvents {
		if ev.Name == "jobs" && ev.Ph == obs.PhaseComplete {
			found = true
		}
	}
	if !found {
		t.Fatalf("no completed span for the jobs endpoint in %d events", len(export.TraceEvents))
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestHTTPRequestSizeLimit checks the body cap is enforced on uploads.
func TestHTTPRequestSizeLimit(t *testing.T) {
	_, client := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 128 })
	if _, err := client.PutArtifact(make([]byte, 4096)); err == nil {
		t.Fatal("oversized artifact accepted")
	}
	small, err := client.PutArtifact([]byte("fits"))
	if err != nil || small == "" {
		t.Fatalf("small artifact rejected: %v", err)
	}
}
