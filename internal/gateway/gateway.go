// Package gateway is the horizontal-scaling tier of the serving stack: a
// stateless router that fronts N readys-serve replicas behind one endpoint.
//
// Requests for one model are routed to the same replica (rendezvous hashing
// on the model's canonical spec hash), so each replica's LRU registry sees a
// concentrated working set instead of a sliver of every model. Replicas are
// health-checked over their /healthz endpoint and failed over transparently:
// a replica dying mid-request surfaces as a retried request on a survivor, not
// a 5xx to the caller.
//
// The gateway records request and per-attempt forward spans into the same
// Chrome trace-event ring as the replicas and propagates X-Trace-ID /
// X-Parent-Span-ID on every hop, so a client→gateway→replica request renders
// as one stitched timeline (readys-obs-check -merge -links verifies the
// cross-process parent links).
package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"readys/internal/exp"
	"readys/internal/obs"
	"readys/internal/serve"
	"readys/internal/taskgraph"
)

// gatewayPID is the pid under which the gateway records trace events. It is
// distinct from the serving daemon's pid so merged multi-process traces keep
// one lane per process even before MergeTraces remaps collisions.
const gatewayPID = 2

// Config tunes the gateway.
type Config struct {
	// Replicas are the base URLs of the readys-serve replicas to front,
	// e.g. "http://127.0.0.1:8081". At least one is required.
	Replicas []string
	// HealthInterval is the period of the active /healthz probe loop.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe.
	HealthTimeout time.Duration
	// Retries is the number of failover attempts after the first forward
	// fails (capped at the replica count); zero takes the default.
	Retries int
	// RetryBase is the pre-jitter backoff before the first failover attempt,
	// doubling per attempt (backoffDelay).
	RetryBase time.Duration
	// RequestTimeout bounds one schedule request end to end, across every
	// failover attempt.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies.
	MaxBodyBytes int64
	// Logger receives request-level diagnostics; nil disables logging.
	Logger *log.Logger
	// TraceEvents is the request-span ring capacity. <= 0 picks one
	// serve.DefaultTraceEvents ring per replica (traceCapacity): 16 384
	// spans for two replicas, ≈ 465 KiB once full at ≈ 29 bytes a span and
	// at most 1.6 MiB at obs.Tracer's widest event (the ring grows in chunks
	// as it fills). A schedule request records two
	// spans here (request, forward) and five on its replica, and /healthz
	// and /metrics record none on either, so over N replicas this window
	// covers the default window of every replica that takes at least 0.4 / N
	// of the schedule traffic — 2.5 times over under an even split. Within
	// it, a replica's request span in a merged trace still finds the forward
	// span it names as parent.
	TraceEvents int
}

// traceCapacity is the default ring of a gateway over the given number of
// replicas, each keeping perReplica records (see Config.TraceEvents).
func traceCapacity(replicas, perReplica int) int { return replicas * perReplica }

// DefaultConfig returns production-shaped defaults (Replicas must still be
// supplied by the caller).
func DefaultConfig() Config {
	return Config{
		HealthInterval: 250 * time.Millisecond,
		HealthTimeout:  time.Second,
		Retries:        3,
		RetryBase:      25 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
		MaxBodyBytes:   1 << 20,
	}
}

// replica is one fronted readys-serve instance. healthy is optimistic: a
// fresh replica is assumed alive until a probe or a forward says otherwise,
// so the gateway serves immediately after start instead of waiting out the
// first probe cycle.
type replica struct {
	url     string
	healthy atomic.Bool
}

// Gateway routes schedule requests across replicas. Build with New, serve
// Handler(), stop the health loop with Close.
type Gateway struct {
	cfg      Config
	replicas []*replica
	client   *http.Client
	metrics  *Metrics
	mux      *http.ServeMux

	// front counts, identifies and traces every request; tracer is the
	// bounded ring it records the request and forward spans into.
	front  *obs.Front
	tracer *obs.Tracer

	routeMu sync.Mutex
	routes  map[routeID][]*replica // rendezvous orders, at most maxRoutes

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a gateway over the configured replicas (zero config fields take
// defaults) and starts its health-probe loop.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gateway: at least one replica URL is required")
	}
	def := DefaultConfig()
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = def.HealthInterval
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = def.HealthTimeout
	}
	if cfg.Retries <= 0 {
		cfg.Retries = def.Retries
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = def.RetryBase
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = def.RequestTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = def.MaxBodyBytes
	}
	g := &Gateway{
		cfg:     cfg,
		client:  &http.Client{Timeout: cfg.RequestTimeout},
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		routes:  make(map[routeID][]*replica),
		stop:    make(chan struct{}),
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, raw := range cfg.Replicas {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		rep := &replica{url: u}
		rep.healthy.Store(true)
		g.replicas = append(g.replicas, rep)
		g.metrics.SetReplicaHealth(u, true)
	}
	if len(g.replicas) == 0 {
		return nil, errors.New("gateway: replica list is empty after normalisation")
	}
	if g.cfg.TraceEvents <= 0 {
		g.cfg.TraceEvents = traceCapacity(len(g.replicas), serve.DefaultTraceEvents)
	}
	g.tracer = obs.NewTracer(g.cfg.TraceEvents)
	g.front = obs.NewFront("gateway", gatewayPID, g.tracer, g.metrics.reg, g.metrics, cfg.Logger)
	g.mux.HandleFunc("/v1/schedule", g.front.Wrap("schedule", true, g.handleSchedule))
	g.mux.HandleFunc("/v1/models", g.front.Wrap("models", true, g.handleModels))
	// A load balancer probing the gateway would otherwise eat the window
	// sized for the replicas' schedule requests: counted, not traced.
	g.mux.HandleFunc("/healthz", g.front.Wrap("healthz", false, g.handleHealthz))
	g.front.Mount(g.mux)
	g.wg.Add(1)
	go g.healthLoop()
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Metrics exposes the counter set.
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Close stops the health-probe loop. In-flight requests are unaffected.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// healthLoop actively probes every replica's /healthz at the configured
// interval so replicas marked down by a failed forward recover without
// needing a risky live request, and replicas that died quietly are discovered
// before a request has to trip over them.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			for _, rep := range g.replicas {
				g.probe(rep)
			}
		}
	}
}

// probe checks one replica's liveness endpoint and updates its health state.
func (g *Gateway) probe(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		g.setHealth(rep, false)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.setHealth(rep, false)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	g.setHealth(rep, resp.StatusCode == http.StatusOK)
}

// setHealth records a replica health transition (state plus gauge, logged on
// change).
func (g *Gateway) setHealth(rep *replica, healthy bool) {
	was := rep.healthy.Swap(healthy)
	g.metrics.SetReplicaHealth(rep.url, healthy)
	if was != healthy && g.cfg.Logger != nil {
		state := "down"
		if healthy {
			state = "healthy"
		}
		g.cfg.Logger.Printf("gateway: replica %s is %s", rep.url, state)
	}
}

// routeKey is the rendezvous key of a schedule request: the canonical hash of
// the agent spec the replica's registry will serve it with. Requests for one
// model always land on one replica (while it is healthy), concentrating each
// replica's model cache on a stable working set.
func routeKey(req *serve.ScheduleRequest) string {
	kind, err := taskgraph.KindFromString(req.Kind)
	if err != nil {
		// Unroutable kinds are rejected by Validate before routing; this
		// fallback just keeps the key total.
		return "invalid|" + req.Kind
	}
	return exp.DefaultAgentSpec(kind, req.ModelT(), req.CPUs, req.GPUs).Hash()
}

// rendezvous orders every replica for a key by highest random weight: the
// SHA-256 of key|url, descending. It keeps the assignment stable under
// membership change: removing one replica only moves the keys that replica
// owned.
func (g *Gateway) rendezvous(key string) []*replica {
	type scored struct {
		rep   *replica
		score string
	}
	all := make([]scored, 0, len(g.replicas))
	for _, rep := range g.replicas {
		all = append(all, scored{rep, exp.HashBytes([]byte(key + "|" + rep.url))})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	out := make([]*replica, len(all))
	for i, s := range all {
		out[i] = s.rep
	}
	return out
}

// byHealth orders a rendezvous order's replicas for one request: the healthy
// ones, then the unhealthy ones as last-ditch candidates, each group in
// rendezvous order — a fully-down replica set is still tried rather than failed
// outright, which is what lets the first request after a full restart succeed
// before the next probe cycle. With every replica healthy that is order
// itself, which the caller must not modify.
func byHealth(order []*replica) []*replica {
	if !slices.ContainsFunc(order, func(rep *replica) bool { return !rep.healthy.Load() }) {
		return order
	}
	out := make([]*replica, len(order))
	up, down := 0, len(order)
	for _, rep := range order {
		if rep.healthy.Load() {
			out[up] = rep
			up++
		} else {
			down--
			out[down] = rep
		}
	}
	slices.Reverse(out[up:])
	return out
}

// rank orders replicas for a key, health applied (byHealth).
func (g *Gateway) rank(key string) []*replica { return byHealth(g.rendezvous(key)) }

// maxRoutes bounds the route table. A full table is cleared before the next
// insert, so churning through keys costs what hashing every request would,
// never memory.
const maxRoutes = 256

// routeID is what a schedule request's route depends on: its routeKey is a
// function of these alone.
type routeID struct {
	kind          string
	t, cpus, gpus int
}

// route returns a schedule request's candidates: its key's rendezvous order
// from the route table, filled on first use, health applied per request. The
// replica set never changes after New, so neither does an entry.
func (g *Gateway) route(req *serve.ScheduleRequest) []*replica {
	id := routeID{req.Kind, req.ModelT(), req.CPUs, req.GPUs}
	g.routeMu.Lock()
	order, ok := g.routes[id]
	if !ok {
		if len(g.routes) >= maxRoutes {
			clear(g.routes)
		}
		order = g.rendezvous(routeKey(req))
		g.routes[id] = order
	}
	g.routeMu.Unlock()
	return byHealth(order)
}

// RouteFor returns the URL of the replica a schedule request currently routes
// to: the rendezvous winner among healthy replicas. Exposed for operational
// debugging ("which replica owns this model?") and a test's or the
// benchmark's targeted replica kill.
func (g *Gateway) RouteFor(req *serve.ScheduleRequest) string {
	return g.route(req)[0].url
}

// forwardResult is one attempt's outcome. body, when set, is a bodyPool
// buffer that proxy returns with putBody.
type forwardResult struct {
	status int
	header http.Header
	body   *bytes.Buffer
}

// bodyPool holds the buffers request bodies and replicas' answers are read
// into, so a hop reuses the bytes of an earlier one instead of growing a new
// slice.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBody returns a buffer to bodyPool unless it grew past maxBytes, which one
// outsized body would otherwise pin for good.
func putBody(b *bytes.Buffer, maxBytes int64) {
	if b != nil && int64(b.Cap()) <= maxBytes {
		b.Reset()
		bodyPool.Put(b)
	}
}

// outBody is a request body to forward, read into a bodyPool buffer. The
// transport writes a request on a goroutine of its own while it waits for the
// answer, so a replica that answers before reading the whole body can leave
// that write going after the forward returns. trace counts the writes the
// transport started (one per connection it got) and finished, and release
// pools the buffer only when the two agree; otherwise the buffer is left to
// the collector.
type outBody struct {
	buf               *bytes.Buffer
	started, finished atomic.Int32
	trace             httptrace.ClientTrace
}

func newOutBody() *outBody {
	b := &outBody{buf: bodyPool.Get().(*bytes.Buffer)}
	b.trace.GotConn = func(httptrace.GotConnInfo) { b.started.Add(1) }
	b.trace.WroteRequest = func(httptrace.WroteRequestInfo) { b.finished.Add(1) }
	return b
}

func (b *outBody) release(maxBytes int64) {
	if b.started.Load() == b.finished.Load() {
		putBody(b.buf, maxBytes)
	}
}

// forward sends body (nil for none) to one replica's path. Each attempt
// carries its own span identity in the outbound trace headers, so the
// replica's request span becomes a child of this attempt's "forward" span —
// the cross-process link readys-obs-check -links resolves.
func (g *Gateway) forward(ctx context.Context, rep *replica, method, path string, body *outBody, tid int64, link obs.Link) (forwardResult, error) {
	start := time.Now()
	attempt := link.Child()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body.buf.Bytes())
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.url+path, rd)
	if err != nil {
		return forwardResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	attempt.Inject(req.Header)
	g.metrics.ObserveReplicaRequest(rep.url)
	res := forwardResult{}
	resp, err := g.client.Do(req)
	if err == nil {
		res.status = resp.StatusCode
		res.header = resp.Header
		res.body = bodyPool.Get().(*bytes.Buffer)
		_, err = res.body.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	g.front.Span("forward", "proxy", tid, start, attempt,
		obs.String(obs.KeyReplica, rep.url), obs.String(obs.KeyPath, path), obs.Int(obs.KeyStatus, int64(res.status)))
	return res, err
}

// backoffDelay is the sleep before failover attempt i (1-based): the base
// delay doubled per attempt, jittered uniformly over [0.5d, 1.5d).
func backoffDelay(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// retriable reports whether a forward's outcome says the replica is broken:
// no answer, an answer whose body did not arrive whole (the connection dropped
// after the headers — nothing has been written to the client yet, and a
// request is a pure function of its body, so it can be re-sent), or a 500/502
// in its place. A 503 (queue full, draining) or 504 (one request past its
// deadline) is a working replica's answer, like every 4xx — resending it
// would move the load to the next replica's cold cache and turn load shedding
// into a cascade.
func retriable(status int, err error) bool {
	return err != nil || status == http.StatusInternalServerError || status == http.StatusBadGateway
}

// proxy forwards a request across the ranked candidates with jittered-backoff
// failover: transport errors, truncated bodies, 500 and 502 mark the replica
// down and move on; any other status is the replica's answer and is relayed
// verbatim.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, method, path string, body *outBody, candidates []*replica, tid int64, link obs.Link) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	if body != nil {
		ctx = httptrace.WithClientTrace(ctx, &body.trace)
	}

	attempts := g.cfg.Retries + 1
	if attempts > len(candidates) {
		attempts = len(candidates)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			g.metrics.Failover()
			select {
			case <-time.After(backoffDelay(g.cfg.RetryBase, i)):
			case <-ctx.Done():
				g.front.WriteError(w, http.StatusGatewayTimeout, fmt.Errorf("gateway: request exceeded %s", g.cfg.RequestTimeout))
				return
			}
		}
		rep := candidates[i]
		res, err := g.forward(ctx, rep, method, path, body, tid, link)
		if !retriable(res.status, err) {
			// The replica answered: relay its response verbatim.
			for _, k := range []string{"Content-Type", "Retry-After"} {
				if v := res.header.Get(k); v != "" {
					w.Header().Set(k, v)
				}
			}
			w.WriteHeader(res.status)
			w.Write(res.body.Bytes())
			putBody(res.body, g.cfg.MaxBodyBytes)
			return
		}
		putBody(res.body, g.cfg.MaxBodyBytes)
		// Transport error, truncated body, 500 or 502: the replica is suspect.
		// Mark it down so concurrent requests skip it until a health probe
		// sees it recover.
		g.setHealth(rep, false)
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("replica %s answered %d", rep.url, res.status)
		}
		if g.cfg.Logger != nil {
			g.cfg.Logger.Printf("gateway: %s %s via %s failed (attempt %d/%d): %v", method, path, rep.url, i+1, attempts, lastErr)
		}
		if ctx.Err() != nil {
			break
		}
	}
	g.front.WriteError(w, http.StatusBadGateway, fmt.Errorf("gateway: all %d candidate replicas failed: %w", attempts, lastErr))
}

// head is what the gateway decodes of a /v1/schedule body: every field of a
// serve.ScheduleRequest but the dag, and whether a dag is there. Its own dag
// field shadows the embedded one, so the dag's bytes are scanned for syntax
// and skipped; checking what they say is the replica's job, and a replica's
// 400 about them is relayed like every 4xx.
type head struct {
	serve.ScheduleRequest
	DAG dagPresence `json:"dag"`
}

// dagPresence records whether a body's dag is present and not null. It keeps
// none of the dag's bytes.
type dagPresence bool

func (d *dagPresence) UnmarshalJSON(b []byte) error {
	*d = string(b) != "null"
	return nil
}

// someDAG stands for a dag the gateway did not decode: Validate and routeKey
// ask only whether there is one.
var someDAG = new(serve.DAGSpec)

// parseHead decodes a body's head as serve.DecodeBody decodes a replica's
// request and validates it with serve.ScheduleRequest.Validate, returning the
// request the route is read from, or the error a 400 answers with. Validating
// before routing answers a malformed request here instead of burning a
// replica round-trip (and a potential failover sequence) on a request no
// replica could serve.
func parseHead(body []byte) (*serve.ScheduleRequest, error) {
	var h head
	if err := serve.DecodeBody(bytes.NewReader(body), &h); err != nil {
		return nil, fmt.Errorf("gateway: decoding request: %w", err)
	}
	req := &h.ScheduleRequest
	if h.DAG {
		req.DAG = someDAG
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// handleSchedule routes POST /v1/schedule by model identity and fails over
// on replica death. The body is read into a pooled buffer (outBody).
func (g *Gateway) handleSchedule(w http.ResponseWriter, r *http.Request, tid int64, link obs.Link) {
	if !g.front.Allow(w, r, http.MethodPost) {
		return
	}
	body := newOutBody()
	defer body.release(g.cfg.MaxBodyBytes)
	if _, err := body.buf.ReadFrom(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)); err != nil {
		g.front.WriteError(w, serve.BodyErrorStatus(err), fmt.Errorf("gateway: reading request: %w", err))
		return
	}
	req, err := parseHead(body.buf.Bytes())
	if err != nil {
		g.front.WriteError(w, http.StatusBadRequest, err)
		return
	}
	g.proxy(w, r, http.MethodPost, "/v1/schedule", body, g.route(req), tid, link)
}

// handleModels proxies GET /v1/models from any healthy replica. Replicas
// front the same checkpoint directory, so one answer represents them all.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request, tid int64, link obs.Link) {
	if !g.front.Allow(w, r, http.MethodGet) {
		return
	}
	g.proxy(w, r, http.MethodGet, "/v1/models", nil, g.rank("models"), tid, link)
}

// handleHealthz reports the gateway's own liveness plus per-replica health.
// The gateway is "ok" while at least one replica is healthy; with none it
// answers 503 so a fronting load balancer can drain it.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request, _ int64, _ obs.Link) {
	if !g.front.Allow(w, r, http.MethodGet) {
		return
	}
	reps := make(map[string]bool, len(g.replicas))
	anyHealthy := false
	for _, rep := range g.replicas {
		h := rep.healthy.Load()
		reps[rep.url] = h
		anyHealthy = anyHealthy || h
	}
	status := http.StatusOK
	state := "ok"
	if !anyHealthy {
		status = http.StatusServiceUnavailable
		state = "no healthy replicas"
	}
	g.front.WriteJSON(w, status, map[string]any{
		"status":         state,
		"replicas":       reps,
		"uptime_seconds": g.front.Uptime().Seconds(),
	})
}
