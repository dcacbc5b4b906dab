// readys-gateway fronts N readys-serve replicas behind one endpoint: it
// routes each schedule request to the replica that owns its model
// (rendezvous hashing on the canonical model-spec hash), health-checks the
// replicas and fails requests over transparently when a replica dies.
//
// Usage:
//
//	readys-gateway -addr :8090 -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//	readys-gateway -smoke -trace-out /tmp/gw   # in-process end-to-end check
//
// Endpoints:
//
//	POST /v1/schedule   route a scheduling request to its owning replica
//	GET  /v1/models     proxy the model listing from a healthy replica
//	GET  /healthz       gateway liveness + per-replica health
//	GET  /metrics       routing counters, per-replica health, failovers
//	                    (?format=prometheus for text exposition)
//	GET  /debug/trace   gateway request/forward spans as Chrome trace JSON
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/gateway"
	"readys/internal/obs"
	"readys/internal/serve"
	"readys/internal/taskgraph"
)

func main() {
	var (
		addr           = flag.String("addr", ":8090", "listen address")
		replicas       = flag.String("replicas", "", "comma-separated readys-serve base URLs (required unless -smoke)")
		healthInterval = flag.Duration("health-interval", 0, "replica /healthz probe period (0 = default)")
		retries        = flag.Int("retries", 0, "failover attempts after the first forward fails (0 = default)")
		timeout        = flag.Duration("timeout", 0, "per-request deadline across all failover attempts (0 = default)")
		smoke          = flag.Bool("smoke", false, "run an in-process gateway + 2 replicas end-to-end check and exit")
		traceOut       = flag.String("trace-out", "", "with -smoke: write client.json, gateway.json, replica1.json and replica2.json into this directory")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "readys-gateway: ", log.LstdFlags)

	if *smoke {
		if err := runSmoke(logger, *traceOut); err != nil {
			logger.Fatal(err)
		}
		fmt.Println("gateway smoke OK")
		return
	}

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		logger.Fatal("at least one replica is required: -replicas http://host:port[,...]")
	}
	gw, err := gateway.New(gateway.Config{
		Replicas:       urls,
		HealthInterval: *healthInterval,
		Retries:        *retries,
		RequestTimeout: *timeout,
		Logger:         logger,
	})
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("fronting %d replicas", len(urls))

	httpSrv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logger.Printf("received %s, shutting down", sig)
		if err := httpSrv.Close(); err != nil {
			logger.Printf("http close: %v", err)
		}
		gw.Close()
		close(done)
	}()

	logger.Printf("listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	<-done
}

// smokeReplica is one in-process serving daemon on a real loopback listener.
type smokeReplica struct {
	srv  *serve.Server
	http *http.Server
	url  string
}

// runSmoke is the end-to-end check behind `make gateway-smoke`: a gateway
// over two replicas serving the same checkpoint, driven by a traced client
// while the replicas' and the gateway's /healthz and the gateway's /metrics
// are probed four times a second. It proves (1) concurrent requests all
// succeed, (2) killing the replica that owns the model fails requests over to
// the survivor with bit-identical schedules, (3) each replica traced every
// request it answered by stage — one rollout span apiece, counting its
// decisions and forwards, and no span per decision — and the gateway traced
// one request span per schedule request, neither of them a span per probe or
// scrape, and (4) the client → gateway → replica trace exports stitch into one
// linked timeline (the Makefile re-validates that with
// readys-obs-check -merge / -links).
func runSmoke(logger *log.Logger, traceOut string) error {
	dir, err := os.MkdirTemp("", "readys-gateway-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// One untrained checkpoint shared by both replicas: untrained weights are
	// deterministically seeded, so the replicas must schedule identically.
	spec := exp.DefaultAgentSpec(taskgraph.Cholesky, 4, 1, 1)
	spec.Window, spec.Layers, spec.Hidden = 1, 1, 8
	if err := core.NewAgent(spec.AgentConfig()).SaveCheckpoint(spec.ModelPath(dir), map[string]string{"smoke": "1"}); err != nil {
		return err
	}

	var reps []*smokeReplica
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{
			ModelsDir: dir, Workers: 4, Queue: 64, RequestTimeout: 30 * time.Second,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		reps = append(reps, &smokeReplica{srv: srv, http: hs, url: "http://" + ln.Addr().String()})
	}
	defer func() {
		for _, r := range reps {
			r.http.Close()
		}
	}()

	// The health interval is pinned long so failover detection below is
	// purely passive (a failed forward), making the failover count
	// deterministic; the active prober has its own test coverage. The smoke
	// probes at the prober's default rate instead, without acting on the
	// answers, so the trace checks of phase 3 run under probe traffic.
	gw, err := gateway.New(gateway.Config{
		Replicas:       []string{reps[0].url, reps[1].url},
		HealthInterval: time.Hour,
		Retries:        3,
		RetryBase:      5 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	stopProbes := probe(gw.Handler(), reps, gateway.DefaultConfig().HealthInterval)

	// The "client process" keeps its own tracer; its root span context rides
	// every request, so gateway and replica spans all join its trace.
	clientTracer := obs.NewTracer(0)
	clientTracer.NameProcess(3, "smoke-client")
	client := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	clientStart := time.Now()

	post := func(seed int64) (int, serve.ScheduleResponse, error) {
		body, _ := json.Marshal(serve.ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1, Seed: seed})
		req, err := http.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		if err != nil {
			return 0, serve.ScheduleResponse{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		client.Inject(req.Header)
		// The gateway handler is driven in-process (no third listener to
		// manage); gateway → replica hops are real HTTP.
		rec := newRecorder()
		gw.Handler().ServeHTTP(rec, req)
		var resp serve.ScheduleResponse
		if rec.status == http.StatusOK {
			if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
				return rec.status, resp, err
			}
		}
		return rec.status, resp, nil
	}

	// Phase 1: concurrent requests with both replicas healthy.
	const clients = 8
	want := make([]serve.ScheduleResponse, clients)
	if err := burst(clients, post, func(i int, resp serve.ScheduleResponse) { want[i] = resp }); err != nil {
		return fmt.Errorf("phase 1 (both replicas up): %w", err)
	}

	// Phase 2: kill the replica that owns the model; every request must fail
	// over to the survivor and produce the same schedule as phase 1.
	owner := gw.RouteFor(&serve.ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1})
	for _, r := range reps {
		if r.url == owner {
			r.http.Close()
			logger.Printf("smoke: killed owning replica %s", r.url)
		}
	}
	got := make([]serve.ScheduleResponse, clients)
	if err := burst(clients, post, func(i int, resp serve.ScheduleResponse) { got[i] = resp }); err != nil {
		return fmt.Errorf("phase 2 (owner killed): %w", err)
	}
	for i := range got {
		if got[i].Makespan != want[i].Makespan || got[i].Decisions != want[i].Decisions {
			return fmt.Errorf("smoke: seed %d diverged after failover: makespan %v/%d decisions vs %v/%d",
				i, got[i].Makespan, got[i].Decisions, want[i].Makespan, want[i].Decisions)
		}
	}
	if gw.Metrics().Failovers() == 0 {
		return errors.New("smoke: owning replica died but no failover was recorded")
	}

	// Phase 3: every replica traced the requests it answered by stage, the
	// gateway traced each schedule request once, and every process's trace is
	// exported for the cross-process link check. The dead replica's listener
	// is gone but its handler still works in-process, so its spans are
	// checked and exported too.
	if rounds := stopProbes(); rounds == 0 {
		return errors.New("smoke: no probe round ran")
	}
	clientTracer.Complete("smoke-run", "client", 3, 1, 0,
		float64(time.Since(clientStart))/float64(time.Microsecond),
		obs.SpanArgs(nil, client.TraceID, client.SpanID, ""))
	replicaTraces := make([][]byte, len(reps))
	answeredTotal := 0
	for i, r := range reps {
		trace, err := get(r.srv.Handler(), "/debug/trace")
		if err != nil {
			return fmt.Errorf("replica %d: %w", i+1, err)
		}
		answered, err := answeredSchedules(r.srv)
		if err != nil {
			return fmt.Errorf("replica %d: %w", i+1, err)
		}
		if err := checkStageSpans(trace, answered); err != nil {
			return fmt.Errorf("smoke: replica %d trace: %w", i+1, err)
		}
		replicaTraces[i] = trace
		answeredTotal += answered
	}
	if answeredTotal != 2*clients {
		return fmt.Errorf("smoke: the replicas answered %d schedule requests, the client got %d answers", answeredTotal, 2*clients)
	}
	gatewayTrace, err := get(gw.Handler(), "/debug/trace")
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	events, err := traceEvents(gatewayTrace)
	if err == nil {
		err = checkRequestSpans(events, 2*clients)
	}
	if err != nil {
		return fmt.Errorf("smoke: gateway trace: %w", err)
	}
	if traceOut != "" {
		if err := os.MkdirAll(traceOut, 0o755); err != nil {
			return err
		}
		var clientTrace bytes.Buffer
		if err := clientTracer.WriteChromeTrace(&clientTrace); err != nil {
			return err
		}
		traces := map[string][]byte{"client.json": clientTrace.Bytes(), "gateway.json": gatewayTrace}
		for i, trace := range replicaTraces {
			traces[fmt.Sprintf("replica%d.json", i+1)] = trace
		}
		for name, trace := range traces {
			if err := os.WriteFile(filepath.Join(traceOut, name), trace, 0o644); err != nil {
				return err
			}
		}
		logger.Printf("smoke: traces written to %s", traceOut)
	}
	return nil
}

// probe sends a round of probes now and every interval until the returned
// stop is called — each replica's /healthz over its listener, as a gateway's
// prober does, and the gateway's /healthz and /metrics in-process, as a load
// balancer and a scraper do — and stop returns how many rounds ran. Answers
// are not checked: a killed replica's probe fails.
func probe(gw http.Handler, reps []*smokeReplica, interval time.Duration) (stop func() int) {
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
			for _, r := range reps {
				if resp, err := client.Get(r.url + "/healthz"); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			for _, path := range []string{"/healthz", "/metrics"} {
				gw.ServeHTTP(newRecorder(), mustRequest(http.MethodGet, path))
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

// get answers GET path from a handler in-process.
func get(h http.Handler, path string) ([]byte, error) {
	rec := newRecorder()
	h.ServeHTTP(rec, mustRequest(http.MethodGet, path))
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rec.status)
	}
	return rec.body.Bytes(), nil
}

// answeredSchedules reads how many schedule requests a replica answered from
// its /metrics.
func answeredSchedules(srv *serve.Server) (int, error) {
	data, err := get(srv.Handler(), "/metrics")
	if err != nil {
		return 0, err
	}
	var m struct {
		Answered int `json:"readys_schedules_answered_total"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m.Answered, nil
}

// traceEvents decodes a Chrome trace export.
func traceEvents(trace []byte) ([]obs.Event, error) {
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	err := json.Unmarshal(trace, &doc)
	return doc.TraceEvents, err
}

// checkRequestSpans requires one request span per answered schedule request
// and none for a /healthz probe or a /metrics scrape, which are counted, not
// traced. A request span's category is its endpoint.
func checkRequestSpans(events []obs.Event, answered int) error {
	requests := 0
	for _, e := range events {
		if e.Name != "request" {
			continue
		}
		if e.Cat != "schedule" {
			return fmt.Errorf("a request span for %s: probes and scrapes are counted, not traced", e.Cat)
		}
		requests++
	}
	if requests != answered {
		return fmt.Errorf("%d request spans for %d answered schedule requests", requests, answered)
	}
	return nil
}

// checkStageSpans requires a replica's trace to hold the request spans
// checkRequestSpans asks for and one rollout span per answered request, each
// counting no more forwards than decisions, and no span per decision:
// decisions are counted, not traced.
func checkStageSpans(trace []byte, answered int) error {
	events, err := traceEvents(trace)
	if err != nil {
		return err
	}
	if err := checkRequestSpans(events, answered); err != nil {
		return err
	}
	rollouts := 0
	for _, e := range events {
		switch e.Name {
		case "decide":
			return errors.New("a decide span: a decision is counted on its rollout span, not traced")
		case "rollout":
			rollouts++
			decisions, _ := e.Args["decisions"].(float64)
			forwards, ok := e.Args["forwards"].(float64)
			if !ok || forwards <= 0 || forwards > decisions {
				return fmt.Errorf("rollout span with %v forwards over %v decisions", e.Args["forwards"], decisions)
			}
		}
	}
	if rollouts != answered {
		return fmt.Errorf("%d rollout spans for %d answered requests", rollouts, answered)
	}
	return nil
}

// burst runs n concurrent schedule requests and hands each 200 response to
// check; any non-200 fails the burst.
func burst(n int, post func(int64) (int, serve.ScheduleResponse, error), check func(int, serve.ScheduleResponse)) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp, err := post(int64(i))
			if err != nil {
				errs[i] = err
				return
			}
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("seed %d: status %d", i, status)
				return
			}
			check(i, resp)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// recorder is a minimal in-process http.ResponseWriter (no httptest import in
// a shipped binary).
type recorder struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header), status: http.StatusOK} }

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func mustRequest(method, path string) *http.Request {
	req, err := http.NewRequest(method, path, nil)
	if err != nil {
		panic(err)
	}
	return req
}
