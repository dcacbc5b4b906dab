package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/obs"
	"readys/internal/serve"
	"readys/internal/taskgraph"
)

// writeTestModel saves an untrained checkpoint for the (kind, T, platform)
// combination into dir. Untrained weights are deterministically seeded, so
// two replicas loading the same file schedule identically — the property the
// failover tests lean on.
func writeTestModel(t testing.TB, dir string, kind taskgraph.Kind, T, cpus, gpus int) {
	t.Helper()
	spec := exp.DefaultAgentSpec(kind, T, cpus, gpus)
	spec.Window, spec.Layers, spec.Hidden = 1, 1, 8
	agent := core.NewAgent(spec.AgentConfig())
	if err := agent.SaveCheckpoint(spec.ModelPath(dir), map[string]string{"test": "1"}); err != nil {
		t.Fatal(err)
	}
}

// startReplica runs one serving daemon over dir behind an httptest listener.
func startReplica(t testing.TB, dir string) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{
		ModelsDir: dir, Workers: 2, Queue: 32, RequestTimeout: 30 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newTestGateway builds a gateway over the given replica URLs with the active
// health prober effectively disabled, so tests exercise the passive
// (failed-forward) detection path deterministically.
func newTestGateway(t testing.TB, urls ...string) *Gateway {
	t.Helper()
	g, err := New(Config{
		Replicas:       urls,
		HealthInterval: time.Hour,
		Retries:        3,
		RetryBase:      time.Millisecond,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func postJSON(t testing.TB, h http.Handler, path string, v any, hdr http.Header) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	for k, vals := range hdr {
		for _, val := range vals {
			req.Header.Add(k, val)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeSchedule(t testing.TB, rec *httptest.ResponseRecorder) serve.ScheduleResponse {
	t.Helper()
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding schedule response: %v\n%s", err, rec.Body.String())
	}
	return resp
}

// sameSchedule compares the deterministic parts of two schedule responses
// (ElapsedMS and CacheHit legitimately differ between replicas).
func sameSchedule(t testing.TB, ctx string, got, want serve.ScheduleResponse) {
	t.Helper()
	if got.Makespan != want.Makespan || got.Decisions != want.Decisions || got.IdleDecisions != want.IdleDecisions {
		t.Errorf("%s: makespan/decisions diverged: got %v/%d/%d, want %v/%d/%d",
			ctx, got.Makespan, got.Decisions, got.IdleDecisions, want.Makespan, want.Decisions, want.IdleDecisions)
	}
	if len(got.Placements) != len(want.Placements) {
		t.Fatalf("%s: %d placements, want %d", ctx, len(got.Placements), len(want.Placements))
	}
	for i := range got.Placements {
		if got.Placements[i] != want.Placements[i] {
			t.Errorf("%s: placement %d: got %+v, want %+v", ctx, i, got.Placements[i], want.Placements[i])
		}
	}
}

// clientTrace is the "client process" of a traced test: one root span, whose
// context rides every request it sends, on a tracer of its own.
type clientTrace struct {
	tracer *obs.Tracer
	link   obs.Link
	start  time.Time
}

func newClientTrace() *clientTrace {
	tr := obs.NewTracer(4)
	tr.NameProcess(3, "client")
	return &clientTrace{tracer: tr, link: obs.RootLink(obs.NewTraceID(), ""), start: time.Now()}
}

// header carries the root span's context to the gateway.
func (c *clientTrace) header() http.Header {
	h := http.Header{}
	c.link.Inject(h)
	return h
}

// export closes the root span now and exports the client's trace.
func (c *clientTrace) export(t testing.TB) []byte {
	c.tracer.Span("request", "client", 3, 1, 0, float64(time.Since(c.start))/float64(time.Microsecond), c.link)
	return exportTrace(t, c.tracer)
}

func exportTrace(t testing.TB, tr *obs.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// get answers GET path from h in-process, failing the test on a non-200.
func get(t testing.TB, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// traceEvents decodes a Chrome trace export's events.
func traceEvents(t testing.TB, trace []byte) []obs.Event {
	t.Helper()
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.TraceEvents
}

// probe sends a round of probes now and every interval until the returned
// stop is called — each replica's /healthz and /metrics over its listener, as
// a gateway's prober and a scraper do, and the gateway's in-process, as a load
// balancer and a scraper do — and stop returns how many rounds ran. Answers
// are not checked: a killed replica's fail.
func probe(gw http.Handler, reps []*httptest.Server, interval time.Duration) (stop func() int) {
	done := make(chan struct{})
	rounds := 0
	var wg sync.WaitGroup
	client := &http.Client{Timeout: time.Second}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			for _, path := range []string{"/healthz", "/metrics"} {
				for _, rep := range reps {
					if resp, err := client.Get(rep.URL + path); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
				gw.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
			}
			rounds++
			select {
			case <-done:
				return
			case <-ticker.C:
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return rounds
	}
}

// TestGatewayFailoverChaos sends a burst of concurrent requests, kills the
// replica that owns their model, and sends the burst again: every request of
// the second must complete on the survivor with the schedule the first got
// for its seed — replica death must never surface as a 5xx. Liveness probes
// and metric scrapes run at the prober's default rate throughout and must
// leave no span. Afterwards every process's trace holds exactly what the
// requests it served record: one request span per schedule request and, on a
// replica, one rollout span per request its readys_schedules_answered_total
// counts; all of it in the client's trace, each replica request span under a
// gateway forward span, and the client, gateway and replica traces merged
// must validate with every parent link resolved.
func TestGatewayFailoverChaos(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, taskgraph.Cholesky, 4, 1, 1)
	reps := []*httptest.Server{startReplica(t, dir), startReplica(t, dir)}
	g := newTestGateway(t, reps[0].URL, reps[1].URL)
	client := newClientTrace()
	stopProbes := probe(g.Handler(), reps, DefaultConfig().HealthInterval)

	const clients = 8
	burst := func(phase string) []serve.ScheduleResponse {
		recs := make([]*httptest.ResponseRecorder, clients)
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := serve.ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1, Seed: int64(i)}
				recs[i] = postJSON(t, g.Handler(), "/v1/schedule", req, client.header())
			}()
		}
		wg.Wait()
		resps := make([]serve.ScheduleResponse, clients)
		for i, rec := range recs {
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: seed %d: status %d: %s", phase, i, rec.Code, rec.Body.String())
			}
			resps[i] = decodeSchedule(t, rec)
		}
		return resps
	}
	want := burst("both replicas up")

	// Kill the replica that owns the route, so every request of the next
	// burst must fail over. CloseClientConnections drops keep-alive
	// connections too, making in-flight forwards fail like a crashed process.
	owner := g.RouteFor(&serve.ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1})
	for _, ts := range reps {
		if ts.URL == owner {
			ts.CloseClientConnections()
			ts.Close()
		}
	}
	got := burst("owner killed")
	for i := range got {
		sameSchedule(t, fmt.Sprintf("seed %d after failover", i), got[i], want[i])
	}
	if g.Metrics().Failovers() == 0 {
		t.Error("no failover recorded despite the owning replica dying")
	}

	// The dead replica must be marked down in the health gauge and in
	// /healthz, while the gateway itself stays serving.
	if body := string(get(t, g.Handler(), "/metrics")); !strings.Contains(body, `readys_gateway_replica_healthy{replica="`+owner+`"} 0`) {
		t.Errorf("dead replica %s not marked down in exposition:\n%s", owner, body)
	}
	get(t, g.Handler(), "/healthz")
	if rounds := stopProbes(); rounds == 0 {
		t.Fatal("no probe round ran")
	}

	// requestSpans requires one request span per schedule request, and none
	// for a probe or a scrape.
	requestSpans := func(who string, events []obs.Event, answered int) {
		t.Helper()
		requests := 0
		for _, e := range events {
			if e.Name == "request" {
				if e.Cat != "schedule" {
					t.Errorf("%s: a request span for %s: probes and scrapes are counted, not traced", who, e.Cat)
				}
				requests++
			}
		}
		if requests != answered {
			t.Errorf("%s: %d request spans for %d schedule requests", who, requests, answered)
		}
	}
	traceID := client.link.TraceID()
	gatewayTrace := exportTrace(t, g.tracer)
	forwards := map[string]bool{}
	gatewayEvents := traceEvents(t, gatewayTrace)
	for _, e := range gatewayEvents {
		if e.Name == "forward" {
			forwards[e.Args[obs.ArgSpanID].(string)] = true
		}
	}
	requestSpans("gateway", gatewayEvents, 2*clients)

	// A dead replica's listener is gone, but its handler still answers
	// in-process.
	traces := [][]byte{client.export(t), gatewayTrace}
	answeredTotal := 0
	for i, ts := range reps {
		who := fmt.Sprintf("replica %d", i+1)
		trace := get(t, ts.Config.Handler, "/debug/trace")
		traces = append(traces, trace)
		var answered int
		for _, line := range strings.Split(string(get(t, ts.Config.Handler, "/metrics")), "\n") {
			if v, ok := strings.CutPrefix(line, "readys_schedules_answered_total "); ok {
				answered, _ = strconv.Atoi(v)
			}
		}
		answeredTotal += answered
		events := traceEvents(t, trace)
		requestSpans(who, events, answered)
		rollouts := 0
		for _, e := range events {
			if e.Ph == obs.PhaseMetadata {
				continue
			}
			if e.Args[obs.ArgTraceID] != traceID {
				t.Errorf("%s: %q span in trace %v, want the client's %s", who, e.Name, e.Args[obs.ArgTraceID], traceID)
			}
			switch e.Name {
			case "request":
				if parent, _ := e.Args[obs.ArgParentSpan].(string); !forwards[parent] {
					t.Errorf("%s: request span's parent %q is no gateway forward span", who, parent)
				}
			case "decide":
				t.Errorf("%s: a decide span: a decision is counted on its rollout span, not traced", who)
			case "rollout":
				rollouts++
				decisions, _ := e.Args["decisions"].(float64)
				if forwards, ok := e.Args["forwards"].(float64); !ok || forwards <= 0 || forwards > decisions {
					t.Errorf("%s: rollout span with %v forwards over %v decisions", who, e.Args["forwards"], decisions)
				}
			}
		}
		if rollouts != answered {
			t.Errorf("%s: %d rollout spans for the %d requests it answered", who, rollouts, answered)
		}
	}
	if answeredTotal != 2*clients {
		t.Errorf("the replicas answered %d schedule requests, the client got %d answers", answeredTotal, 2*clients)
	}

	merged, err := obs.MergeTraces(traces...)
	if err != nil {
		t.Fatalf("merging traces: %v", err)
	}
	if err := obs.ValidateChromeTrace(merged); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if err := obs.ValidateTraceLinks(merged); err != nil {
		t.Fatalf("trace links broken across client→gateway→replica: %v", err)
	}
}

// TestGatewayAllReplicasDown pins the exhaustion path: with every replica
// dead the gateway answers 502 (not a hang) and its own /healthz turns 503.
func TestGatewayAllReplicasDown(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, taskgraph.Cholesky, 2, 1, 1)
	rep := startReplica(t, dir)
	g := newTestGateway(t, rep.URL)
	rep.CloseClientConnections()
	rep.Close()

	req := serve.ScheduleRequest{Kind: "cholesky", T: 2, CPUs: 1, GPUs: 1, Seed: 1}
	rec := postJSON(t, g.Handler(), "/v1/schedule", req, nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d with all replicas down, want 502: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("gateway /healthz answered %d with zero live replicas, want 503", rec.Code)
	}
}

// TestGatewayBusyIsNotBroken pins which outcomes of a forward cost a replica
// its place: no answer, a 500 or a 502 mark it down and send the request to the
// next candidate; a 503 (queue full, draining), a 504 (one request past its
// deadline) and a 404 are the replica's answer — relayed with body,
// Content-Type and Retry-After, the replica still healthy, nothing re-sent.
func TestGatewayBusyIsNotBroken(t *testing.T) {
	const stubBody = `{"error":"stub"}`
	const truncated, truncatedChunked = -1, -2
	req := serve.ScheduleRequest{Kind: "cholesky", T: 2, CPUs: 1, GPUs: 1, Seed: 1}
	for _, c := range []struct {
		name     string
		status   int // the owning replica's answer; 0 closes it instead, truncated(Chunked) dies mid-answer
		failover bool
	}{
		{"transport error", 0, true},
		{"truncated body", truncated, true},
		{"truncated chunked body", truncatedChunked, true},
		{"500", http.StatusInternalServerError, true},
		{"502", http.StatusBadGateway, true},
		{"503", http.StatusServiceUnavailable, false},
		{"504", http.StatusGatewayTimeout, false},
		{"404", http.StatusNotFound, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Two stub replicas answering 200 until told otherwise.
			var stubs [2]*httptest.Server
			var status [2]atomic.Int32
			var hits [2]atomic.Int32
			for i := range stubs {
				status[i].Store(http.StatusOK)
				stubs[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					hits[i].Add(1)
					code := int(status[i].Load())
					if code == truncated || code == truncatedChunked {
						// A 200 that promises 100 bytes (or a chunk of 100),
						// sends 8 and drops the connection.
						conn, buf, err := w.(http.Hijacker).Hijack()
						if err != nil {
							t.Error(err)
							return
						}
						framing := "Content-Length: 100\r\n\r\n"
						if code == truncatedChunked {
							framing = "Transfer-Encoding: chunked\r\n\r\n64\r\n"
						}
						buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/stub+json\r\n" + framing + stubBody[:8])
						buf.Flush()
						conn.Close()
						return
					}
					w.Header().Set("Content-Type", "application/stub+json")
					if code == http.StatusServiceUnavailable {
						w.Header().Set("Retry-After", "7")
					}
					w.WriteHeader(code)
					w.Write([]byte(stubBody))
				}))
				t.Cleanup(stubs[i].Close)
			}
			g := newTestGateway(t, stubs[0].URL, stubs[1].URL)
			owner := 0
			if g.RouteFor(&req) == stubs[1].URL {
				owner = 1
			}
			if c.status == 0 {
				stubs[owner].CloseClientConnections()
				stubs[owner].Close()
			} else {
				status[owner].Store(int32(c.status))
			}

			rec := postJSON(t, g.Handler(), "/v1/schedule", req, nil)

			wantStatus, wantFailovers, wantOtherHits := c.status, uint64(0), int32(0)
			if c.failover {
				wantStatus, wantFailovers, wantOtherHits = http.StatusOK, 1, 1
			}
			wantRetryAfter := ""
			if wantStatus == http.StatusServiceUnavailable {
				wantRetryAfter = "7"
			}
			if rec.Code != wantStatus || rec.Body.String() != stubBody {
				t.Errorf("relayed %d %q, want %d %q", rec.Code, rec.Body.String(), wantStatus, stubBody)
			}
			if ct, ra := rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"); ct != "application/stub+json" || ra != wantRetryAfter {
				t.Errorf("relayed Content-Type %q, Retry-After %q, want the replica's (Retry-After %q)", ct, ra, wantRetryAfter)
			}
			if n := g.Metrics().Failovers(); n != wantFailovers {
				t.Errorf("%d failovers, want %d", n, wantFailovers)
			}
			if n := hits[1-owner].Load(); n != wantOtherHits {
				t.Errorf("the other replica saw %d requests, want %d", n, wantOtherHits)
			}
			for _, rep := range g.replicas {
				wantHealthy := !(c.failover && rep.url == stubs[owner].URL)
				if rep.healthy.Load() != wantHealthy {
					t.Errorf("replica %s healthy=%v afterwards, want %v", rep.url, !wantHealthy, wantHealthy)
				}
			}
		})
	}
}

// TestGatewayRelaysPooledAnswers: answers are read into pooled buffers, so
// concurrent requests must each get back the bytes their replica sent, as a
// chunked answer of several kB at sizes either side of the pool's limit
// (MaxBodyBytes). TestGatewayBusyIsNotBroken covers truncated answers.
func TestGatewayRelaysPooledAnswers(t *testing.T) {
	answer := func(seed int64) string {
		return fmt.Sprintf(`{"seed":%d,"pad":%q}`, seed, strings.Repeat(string(rune('a'+seed%26)), 2048+int(seed%5)*1024))
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.ScheduleRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		// No Content-Length and a flush per kB: a chunked answer.
		w.Header().Set("Content-Type", "application/json")
		for body := answer(req.Seed); len(body) > 0; {
			n := min(1000, len(body))
			io.WriteString(w, body[:n])
			w.(http.Flusher).Flush()
			body = body[n:]
		}
	}))
	t.Cleanup(stub.Close)
	g, err := New(Config{Replicas: []string{stub.URL}, HealthInterval: time.Hour, MaxBodyBytes: 5 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	var wg sync.WaitGroup
	for c := int64(0); c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := c * 10; seed < c*10+10; seed++ {
				req := serve.ScheduleRequest{Kind: "cholesky", T: 2, CPUs: 1, GPUs: 1, Seed: seed}
				rec := postJSON(t, g.Handler(), "/v1/schedule", req, nil)
				if rec.Code != http.StatusOK || rec.Body.String() != answer(seed) {
					t.Errorf("seed %d: relayed %d, %d bytes, want 200 with the replica's %d", seed, rec.Code, rec.Body.Len(), len(answer(seed)))
				}
			}
		}()
	}
	wg.Wait()
	if n := g.Metrics().Failovers(); n != 0 {
		t.Errorf("%d failovers while the replica answered whole", n)
	}
}

// TestGatewayTraceIDHeadersBounded: a client's trace ID of 1–16 hex digits
// keeps its value, in 16 digits, in the gateway's export, in the echoed
// X-Trace-ID and on the header forwarded to the replica; and 400 requests
// whose X-Trace-ID headers are 256 KiB each, all different, leave less than
// 1 MiB of heap behind. The bound is obs.Front's, which a serve replica's
// handlers are wrapped in too.
func TestGatewayTraceIDHeadersBounded(t *testing.T) {
	var mu sync.Mutex
	var forwarded [2]string // the last trace and parent headers the replica got
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		forwarded = [2]string{r.Header.Get(obs.HeaderTraceID), r.Header.Get(obs.HeaderParentSpan)}
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"models":[]}`)
	}))
	t.Cleanup(rep.Close)
	g := newTestGateway(t, rep.URL)
	get := func(traceID string) string {
		req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
		req.Header.Set(obs.HeaderTraceID, traceID)
		req.Header.Set(obs.HeaderParentSpan, "b")
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("models -> %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Header().Get(obs.HeaderTraceID)
	}

	const want = "000000000000001a"
	if echoed := get("1A"); echoed != want {
		t.Errorf("trace 1A echoed as %q, want %s", echoed, want)
	}
	if mu.Lock(); forwarded[0] != want || len(forwarded[1]) != 16 {
		t.Errorf("forwarded trace %q, parent %q; want %s and a forward span's 16 digits", forwarded[0], forwarded[1], want)
	}
	mu.Unlock()
	for _, e := range g.tracer.Events() {
		if e.Args[obs.ArgTraceID] != want {
			t.Errorf("%s span in trace %v, want %s", e.Name, e.Args[obs.ArgTraceID], want)
		}
		if e.Name == "request" && e.Args[obs.ArgParentSpan] != "000000000000000b" {
			t.Errorf("request span's parent %v, want 000000000000000b", e.Args[obs.ArgParentSpan])
		}
	}

	pad := strings.Repeat("x", 256<<10)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range 400 {
		if echoed := get(strconv.Itoa(i) + pad); len(echoed) != 16 {
			t.Fatalf("a 256 KiB trace ID echoed as %d bytes, want a fresh trace's 16", len(echoed))
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("400 requests with 256 KiB trace IDs leave %d B of heap", kept)
	if kept > 1<<20 {
		t.Fatalf("400 requests with 256 KiB trace IDs leave %d B of heap, bound is 1 MiB", kept)
	}
	runtime.KeepAlive(g)
}

// TestGatewayTraceRingIgnoresProbes: a ring sized for one schedule request
// (its request and forward spans) still holds it after 40 /healthz probes and
// /metrics scrapes, which a load balancer and a scraper send whether or not
// anyone schedules; they are still counted.
func TestGatewayTraceRingIgnoresProbes(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, taskgraph.Cholesky, 2, 1, 1)
	rep := startReplica(t, dir)
	g, err := New(Config{Replicas: []string{rep.URL}, HealthInterval: time.Hour, TraceEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	rec := postJSON(t, g.Handler(), "/v1/schedule", serve.ScheduleRequest{Kind: "cholesky", T: 2, CPUs: 1, GPUs: 1}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule: status %d: %s", rec.Code, rec.Body.String())
	}
	for range 20 {
		for _, path := range []string{"/healthz", "/metrics"} {
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", path, rec.Code)
			}
		}
	}
	spans := map[string]int{}
	for _, e := range g.tracer.Events() {
		if e.Ph != obs.PhaseMetadata {
			spans[e.Name+"/"+e.Cat]++
		}
	}
	if want := map[string]int{"request/schedule": 1, "forward/proxy": 1}; !maps.Equal(spans, want) {
		t.Errorf("after 40 probes and scrapes the ring holds %v, want the schedule request's %v", spans, want)
	}
	var exposition bytes.Buffer
	if err := g.metrics.reg.WriteText(&exposition); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`readys_gateway_requests_total{endpoint="healthz"} 20`, `readys_gateway_requests_total{endpoint="metrics"} 20`} {
		if !strings.Contains(exposition.String(), want) {
			t.Errorf("probes are still counted: exposition missing %q", want)
		}
	}
}

// TestGatewayRingCoversReplicaWindows holds the default ring's rule to its
// contract at a size a test can lap: two replicas keeping 50 records (ten
// schedule requests) each, the gateway's ring from traceCapacity over 50, and
// sequential traffic split 2:1 between the replicas, as serve_gw_t4's is, for
// four laps of the smaller replica's ring. Every request span left in a
// replica's ring must find the forward span it names as parent in the
// gateway's. A gateway given no TraceEvents takes the same rule over
// serve.DefaultTraceEvents.
func TestGatewayRingCoversReplicaWindows(t *testing.T) {
	const perReplica = 50
	dir := t.TempDir()
	var (
		srvs [2]*serve.Server
		urls []string
	)
	for i := range srvs {
		srvs[i] = serve.New(serve.Config{ModelsDir: dir, Workers: 1, Queue: 4, RequestTimeout: 30 * time.Second, TraceEvents: perReplica})
		ts := httptest.NewServer(srvs[i].Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	g, err := New(Config{Replicas: urls, HealthInterval: time.Hour, TraceEvents: traceCapacity(len(urls), perReplica)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	// One model per replica: the first small generated problem rendezvous
	// hashing sends to each (the replica URLs, and so the routes, differ from
	// run to run).
	var owned [2]*serve.ScheduleRequest
	for T := 2; T <= 6; T++ {
		for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
			req := &serve.ScheduleRequest{Kind: kind.String(), T: T, CPUs: 1, GPUs: 1}
			i := slices.Index(urls, g.RouteFor(req))
			if owned[i] == nil {
				owned[i] = req
				writeTestModel(t, dir, kind, T, 1, 1)
			}
		}
	}
	if owned[0] == nil || owned[1] == nil {
		t.Fatalf("15 problems all route to one replica: %v", owned)
	}

	const laps = 4 // of the smaller replica's ring, ten of its requests a lap
	for n := range laps * perReplica / 5 {
		for _, req := range []*serve.ScheduleRequest{owned[0], owned[0], owned[1]} {
			req.Seed = int64(n)
			if rec := postJSON(t, g.Handler(), "/v1/schedule", req, nil); rec.Code != http.StatusOK {
				t.Fatalf("%s T=%d: status %d: %s", req.Kind, req.T, rec.Code, rec.Body.String())
			}
		}
	}

	forwards := map[string]bool{}
	for _, e := range g.tracer.Events() {
		if e.Name == "forward" {
			forwards[e.Args[obs.ArgSpanID].(string)] = true
		}
	}
	for i, srv := range srvs {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
		var doc struct {
			TraceEvents []obs.Event `json:"traceEvents"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		requests, orphans := 0, 0
		for _, e := range doc.TraceEvents {
			if e.Name != "request" {
				continue
			}
			requests++
			if parent, _ := e.Args[obs.ArgParentSpan].(string); !forwards[parent] {
				orphans++
			}
		}
		if requests != perReplica/5 || orphans != 0 {
			t.Errorf("replica %d: %d of the %d request spans in its ring name a forward span the gateway's ring no longer holds",
				i+1, orphans, requests)
		}
	}

	def, err := New(Config{Replicas: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	def.Close()
	if want := traceCapacity(len(urls), serve.DefaultTraceEvents); def.cfg.TraceEvents != want {
		t.Errorf("a gateway over %d replicas defaults to %d trace records, want %d", len(urls), def.cfg.TraceEvents, want)
	}
}

// TestHealthProbeRecovery exercises the active prober both ways: a replica
// whose /healthz starts failing is marked down without any request tripping
// over it, and marked healthy again once the endpoint recovers — the path
// that brings a restarted replica back into rotation.
func TestHealthProbeRecovery(t *testing.T) {
	var failing atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)

	g, err := New(Config{
		Replicas:       []string{ts.URL},
		HealthInterval: 5 * time.Millisecond,
		HealthTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	waitHealth := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if g.replicas[0].healthy.Load() == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("replica health never became %v", want)
	}

	waitHealth(true)
	failing.Store(true)
	waitHealth(false)
	failing.Store(false)
	waitHealth(true)
}

// TestGatewayMetricsPrometheusFormat is the golden exposition test for the
// gateway's metric families.
func TestGatewayMetricsPrometheusFormat(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, taskgraph.Cholesky, 2, 1, 1)
	rep := startReplica(t, dir)
	g := newTestGateway(t, rep.URL)

	rec := postJSON(t, g.Handler(), "/v1/schedule",
		serve.ScheduleRequest{Kind: "cholesky", T: 2, CPUs: 1, GPUs: 1, Seed: 3}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule: status %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	body := rec.Body.String()
	for _, line := range []string{
		"# TYPE readys_gateway_requests_total counter",
		`readys_gateway_requests_total{endpoint="schedule"} 1`,
		"# TYPE readys_gateway_replica_requests_total counter",
		`readys_gateway_replica_requests_total{replica="` + rep.URL + `"} 1`,
		"# TYPE readys_gateway_replica_healthy gauge",
		`readys_gateway_replica_healthy{replica="` + rep.URL + `"} 1`,
		"# TYPE readys_gateway_failovers_total counter",
		"readys_gateway_failovers_total 0",
		"# TYPE readys_gateway_uptime_seconds gauge",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("prometheus exposition missing %q\n%s", line, body)
		}
	}
}

// raceDetector is set when the tests run under -race (race_test.go).
var raceDetector bool

// explicitDAG is the explicit-DAG form of the generated (kind, T) problem:
// every task named, every edge in Succ order, served by the model trained at T.
func explicitDAG(kind taskgraph.Kind, T int) serve.ScheduleRequest {
	g := taskgraph.NewByKind(kind, T)
	spec := &serve.DAGSpec{}
	for _, task := range g.Tasks {
		spec.Tasks = append(spec.Tasks, serve.DAGTask{Kernel: int(task.Kernel), Name: task.Name})
	}
	for from, succ := range g.Succ {
		for _, to := range succ {
			spec.Edges = append(spec.Edges, [2]int{from, to})
		}
	}
	return serve.ScheduleRequest{Kind: kind.String(), TrainT: T, CPUs: 2, GPUs: 2, Sigma: 0.1, Seed: 1, DAG: spec}
}

// stubReplica answers every schedule request 200 with a fixed body after
// reading the request's, and counts what it answered.
func stubReplica(t testing.TB) (*httptest.Server, *atomic.Int32) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/schedule" {
			w.WriteHeader(http.StatusOK)
			return
		}
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"stub":true}`)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// TestGatewayBodyRefusals: a body the gateway cannot read or whose head it
// refuses is answered by the gateway and never forwarded — 413 only for a body
// past MaxBodyBytes, 400 for one whose client hung up mid-body, that goes on
// after its object or that names no known kind — while trailing whitespace is
// no refusal.
func TestGatewayBodyRefusals(t *testing.T) {
	stub, hits := stubReplica(t)
	g, err := New(Config{Replicas: []string{stub.URL}, HealthInterval: time.Hour, MaxBodyBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	const obj = `{"kind":"cholesky","t":2,"cpus":1,"gpus":1}`
	for _, c := range []struct {
		name    string
		body    io.Reader
		status  int
		forward bool
	}{
		{"object", strings.NewReader(obj), http.StatusOK, true},
		{"trailing whitespace", strings.NewReader(obj + "\n \t"), http.StatusOK, true},
		{"body over MaxBodyBytes", strings.NewReader(obj[:len(obj)-1] + strings.Repeat(" ", 8<<10) + "}"), http.StatusRequestEntityTooLarge, false},
		{"client hung up", io.MultiReader(strings.NewReader(obj[:10]), iotest.ErrReader(io.ErrUnexpectedEOF)), http.StatusBadRequest, false},
		{"trailing object", strings.NewReader(obj + `{"t":8}`), http.StatusBadRequest, false},
		{"trailing junk", strings.NewReader(obj + " junk"), http.StatusBadRequest, false},
		{"unknown kind", strings.NewReader(`{"kind":"nope","t":2,"cpus":1}`), http.StatusBadRequest, false},
	} {
		before := hits.Load()
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", c.body))
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.status, rec.Body.String())
		}
		if forwarded := hits.Load() > before; forwarded != c.forward {
			t.Errorf("%s: forwarded %v, want %v", c.name, forwarded, c.forward)
		}
	}
}

// TestGatewayRelaysReplicaVerdictOnDAG: the gateway decodes no dag and loads
// no model, so a body whose dag is malformed, or that names a model the
// replica does not have, reaches the replica once, and the replica's 400 or
// 404 comes back byte for byte as the replica answers it directly — no
// failover, no retry, the replica still healthy.
func TestGatewayRelaysReplicaVerdictOnDAG(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, taskgraph.Cholesky, 2, 1, 1)
	srv := serve.New(serve.Config{ModelsDir: dir, Workers: 1, Queue: 4, RequestTimeout: 30 * time.Second})
	var hits atomic.Int32
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/schedule" {
			hits.Add(1)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(rep.Close)
	g := newTestGateway(t, rep.URL)
	const prefix = `{"kind":"cholesky","train_t":2,"cpus":1,"gpus":1,"dag":`
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"unknown field in dag", prefix + `{"tasks":[{"kernel":0}],"edges":[],"weights":[1]}}`, http.StatusBadRequest},
		{"tasks not a list", prefix + `{"tasks":"x","edges":[]}}`, http.StatusBadRequest},
		{"cycle", prefix + `{"tasks":[{"kernel":0},{"kernel":1}],"edges":[[0,1],[1,0]]}}`, http.StatusBadRequest},
		{"no such model", `{"kind":"qr","t":9,"cpus":1,"gpus":1}`, http.StatusNotFound},
	} {
		name, body := c.name, c.body
		direct := httptest.NewRecorder()
		srv.Handler().ServeHTTP(direct, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)))
		if direct.Code != c.status {
			t.Fatalf("%s: the replica answered %d directly, want %d: %s", name, direct.Code, c.status, direct.Body.String())
		}
		before := hits.Load()
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)))
		if rec.Code != c.status || rec.Body.String() != direct.Body.String() {
			t.Errorf("%s: the gateway relayed %d %q, the replica answers %d %q", name, rec.Code, rec.Body.String(), direct.Code, direct.Body.String())
		}
		if n := hits.Load() - before; n != 1 {
			t.Errorf("%s: the replica saw %d requests, want 1", name, n)
		}
	}
	if n := g.Metrics().Failovers(); n != 0 {
		t.Errorf("%d failovers on the replica's 400s and 404", n)
	}
	if !g.replicas[0].healthy.Load() {
		t.Error("the replica was marked down for answering 400 or 404")
	}
}

// rankByHashing is the routing the gateway did before its route table: hash
// the request's spec, sort the replicas by SHA-256 of key|url, healthy ones
// first. The table must reproduce it for every request.
func rankByHashing(g *Gateway, req *serve.ScheduleRequest) []string {
	key := "invalid|" + req.Kind
	if kind, err := taskgraph.KindFromString(req.Kind); err == nil {
		key = exp.DefaultAgentSpec(kind, req.ModelT(), req.CPUs, req.GPUs).Hash()
	}
	type scored struct {
		rep   *replica
		score string
	}
	var all []scored
	for _, rep := range g.replicas {
		all = append(all, scored{rep, exp.HashBytes([]byte(key + "|" + rep.url))})
	}
	slices.SortFunc(all, func(a, b scored) int { return strings.Compare(b.score, a.score) })
	var out []string
	for _, up := range []bool{true, false} {
		for _, s := range all {
			if s.rep.healthy.Load() == up {
				out = append(out, s.rep.url)
			}
		}
	}
	return out
}

// TestRouteTableMatchesRendezvous: for 1–5 replicas, listed in either order,
// and a grid of keys wider than the table, the candidates of every request
// equal rankByHashing's, which depends on the replica set and not its order —
// while the table fills, after it has been cleared for crossing maxRoutes,
// and with replicas marked down, which drop behind every healthy one but stay
// candidates of last resort — and the table never holds more than maxRoutes
// keys. The grid's keys spread over every replica.
func TestRouteTableMatchesRendezvous(t *testing.T) {
	var grid []*serve.ScheduleRequest
	for _, kind := range []string{"cholesky", "lu", "qr"} {
		for T := 1; T <= 16; T++ {
			for cpus := 0; cpus <= 2; cpus++ {
				grid = append(grid,
					&serve.ScheduleRequest{Kind: kind, T: T, CPUs: cpus, GPUs: 2},
					&serve.ScheduleRequest{Kind: kind, T: 9, TrainT: T, CPUs: cpus, GPUs: 1, DAG: &serve.DAGSpec{}})
			}
		}
	}
	if len(grid) <= maxRoutes {
		t.Fatalf("a grid of %d keys does not cross the table's bound of %d", len(grid), maxRoutes)
	}
	for n := 1; n <= 5; n++ {
		var urls []string
		for i := range n {
			urls = append(urls, fmt.Sprintf("http://10.0.0.%d:8081", i+1))
		}
		reversed := slices.Clone(urls)
		slices.Reverse(reversed)
		gateways := []*Gateway{newTestGateway(t, urls...), newTestGateway(t, reversed...)}
		first := map[string]bool{}
		check := func(phase string) {
			t.Helper()
			for order, g := range gateways {
				for _, req := range grid {
					got := []string{}
					for _, rep := range g.route(req) {
						got = append(got, rep.url)
					}
					if want := rankByHashing(g, req); !slices.Equal(got, want) {
						t.Fatalf("%d replicas in order %d, %s, %s T=%d train_t=%d %dc%dg: candidates %v, want %v",
							n, order, phase, req.Kind, req.T, req.TrainT, req.CPUs, req.GPUs, got, want)
					}
					if got, want := g.RouteFor(req), rankByHashing(g, req)[0]; got != want {
						t.Fatalf("%d replicas in order %d, %s: RouteFor %s, want %s", n, order, phase, got, want)
					}
					if len(g.routes) > maxRoutes {
						t.Fatalf("%d replicas in order %d, %s: the table holds %d keys, bound %d", n, order, phase, len(g.routes), maxRoutes)
					}
					first[got[0]] = true
				}
			}
		}
		check("filling")
		if len(first) != n {
			t.Fatalf("%d replicas: the grid's keys route first to only %d of them", n, len(first))
		}
		check("after the bound")
		for _, g := range gateways {
			for i, rep := range g.replicas {
				rep.healthy.Store(i%2 == 1)
			}
		}
		check("some down")
		for _, g := range gateways {
			for _, rep := range g.replicas {
				rep.healthy.Store(false)
			}
		}
		check("all down")
	}
}

// TestGatewayHopAllocBounded is the gateway hop's cost contract, over a stub
// replica: the hop decodes the head of a body and skips its dag, so an LU T=8
// explicit DAG (204 tasks) costs at most 8 allocations more than an LU T=4
// one (30 tasks); the few it does cost are the larger body's buffers. Decoding
// the whole dag cost an allocation and more per task: 193 more for the T=8 dag
// than for the T=4 one, which alone cost 56 more than a generated body.
func TestGatewayHopAllocBounded(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops a quarter of sync.Pool puts, so pooled buffers regrow at random")
	}
	stub, _ := stubReplica(t)
	g := newTestGateway(t, stub.URL)
	allocs := func(req serve.ScheduleRequest) float64 {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		})
	}
	gen := allocs(serve.ScheduleRequest{Kind: "lu", T: 4, CPUs: 2, GPUs: 2, Sigma: 0.1, Seed: 1})
	t4 := allocs(explicitDAG(taskgraph.LU, 4))
	t8 := allocs(explicitDAG(taskgraph.LU, 8))
	t.Logf("allocations per hop: generated %.0f, LU T=4 dag %.0f, LU T=8 dag %.0f", gen, t4, t8)
	if t8-t4 > 8 {
		t.Errorf("an LU T=8 dag body cost %.0f allocations more than an LU T=4 one, contract is 8", t8-t4)
	}
}

// FuzzRouteRequest holds the gateway's head decode to the replica's full one:
// a body the replica decodes (serve.DecodeBody) and validates, parseHead
// accepts and routes as the full request's routeKey ranks — so a body the head
// decode refuses, the replica refuses too.
func FuzzRouteRequest(f *testing.F) {
	for _, body := range []string{
		`{"kind":"cholesky","t":4,"cpus":2,"gpus":2,"sigma":0.1,"seed":42}`,
		`{"kind":"lu","train_t":4,"cpus":1,"gpus":1,"dag":{"tasks":[{"kernel":0},{"kernel":1,"name":"b"}],"edges":[[0,1]]},"seed":3}`,
		`{"kind":"qr","t":3,"cpus":1,"gpus":1,"dag":null}`,
		`{"kind":"qr","train_t":3,"cpus":1,"gpus":1,"dag":"x"}`,
		`{"kind":"qr","train_t":3,"cpus":1,"gpus":1,"dag":{"tasks":[{"kernel":0}]},"dag":null}`,
		`{"KIND":"gemm","T":2,"Cpus":4,"gpus":0}`,
		`{"kind":"cholesky","t":4,"cpus":1,"gpus":1,"bogus":1}`,
		`{"kind":"cholesky","t":4,"cpus":1,"gpus":1} {"t":8}`,
		`{"kind":"random","t":3,"cpus":1,"gpus":1}`,
		`{"kind":"stencil","t":1000000,"cpus":1,"gpus":1}`,
		`{"kind":"cholesky","t":1000000,"cpus":1,"gpus":1}`,
	} {
		f.Add([]byte(body))
	}
	g, err := New(Config{Replicas: []string{"http://10.0.0.1:8081", "http://10.0.0.2:8081", "http://10.0.0.3:8081"}, HealthInterval: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(g.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var full serve.ScheduleRequest
		replicaAccepts := serve.DecodeBody(bytes.NewReader(body), &full) == nil && full.Validate() == nil
		req, err := parseHead(body)
		if err != nil {
			if replicaAccepts {
				t.Fatalf("the head decode refused a body the replica accepts: %v", err)
			}
			return
		}
		if !replicaAccepts {
			return // the replica's own 400, relayed
		}
		var got, want []string
		for _, rep := range g.route(req) {
			got = append(got, rep.url)
		}
		for _, rep := range g.rank(routeKey(&full)) {
			want = append(want, rep.url)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("head routes to %v, the full request to %v", got, want)
		}
	})
}
