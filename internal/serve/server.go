package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"readys/internal/exp"
	"readys/internal/obs"
	"readys/internal/sched"
)

// Config tunes the service.
type Config struct {
	// ModelsDir is the checkpoint directory the registry loads from.
	ModelsDir string
	// Workers is the number of rollout worker goroutines.
	Workers int
	// Queue is the bounded request-queue capacity; a full queue answers 503.
	Queue int
	// MaxModels bounds the number of resident checkpoints (LRU).
	MaxModels int
	// RequestTimeout is the server-side deadline for one schedule request.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies.
	MaxBodyBytes int64
	// Logger receives request-level diagnostics; nil disables logging.
	Logger *log.Logger
	// EnablePprof mounts net/http/pprof and GET /debug/runtime. Off by
	// default: profiling endpoints leak operational detail, so they must be
	// asked for (readys-serve -pprof).
	EnablePprof bool
	// TraceEvents is the request-span ring capacity (<= 0 picks
	// DefaultTraceEvents). Only the most recent window is kept, so tracing is
	// always on and bounded.
	TraceEvents int
}

// DefaultTraceEvents is a serving daemon's default request-span ring: 8 192
// records in 768 KiB. A successful schedule request records five spans
// whatever its size (request, model_load, queue_wait, rollout, references; its
// decisions are counted on the rollout span and in the readys_decide_*
// metrics). /healthz probes and /metrics scrapes record none, so the ring
// holds the last ≈ 1 600 schedule requests however often a gateway probes. A
// gateway sizes its own default ring from this one (gateway.Config.TraceEvents).
const DefaultTraceEvents = 1 << 13

// DefaultConfig returns production-shaped defaults sized to the host.
func DefaultConfig() Config {
	return Config{
		ModelsDir:      exp.DefaultModelsDir(),
		Workers:        runtime.GOMAXPROCS(0),
		Queue:          64,
		MaxModels:      8,
		RequestTimeout: 30 * time.Second,
		MaxBodyBytes:   1 << 20,
		TraceEvents:    DefaultTraceEvents,
	}
}

// Server is the online scheduling service: registry + pool + metrics behind
// a stdlib net/http mux.
type Server struct {
	cfg      Config
	registry *Registry
	pool     *Pool
	metrics  *Metrics
	mux      *http.ServeMux

	// epoch anchors trace timestamps; tracer records per-request spans into
	// a bounded ring; reqSeq hands out request IDs.
	epoch  time.Time
	tracer *obs.Tracer
	reqSeq atomic.Int64
	build  obs.BuildInfo
}

// New builds a server from the config (zero fields take defaults).
func New(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.ModelsDir == "" {
		cfg.ModelsDir = def.ModelsDir
	}
	if cfg.Workers < 1 {
		cfg.Workers = def.Workers
	}
	if cfg.Queue < 1 {
		cfg.Queue = def.Queue
	}
	if cfg.MaxModels < 1 {
		cfg.MaxModels = def.MaxModels
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = def.RequestTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = def.MaxBodyBytes
	}
	if cfg.TraceEvents <= 0 {
		cfg.TraceEvents = def.TraceEvents
	}
	s := &Server{
		cfg: cfg,
		// Idle clones are capped at the worker count: more can never be in
		// flight at once, so anything beyond that would be dead weight.
		registry: NewRegistry(cfg.ModelsDir, cfg.MaxModels, cfg.Workers),
		pool:     NewPool(cfg.Workers, cfg.Queue),
		metrics:  NewMetrics(),
		mux:      http.NewServeMux(),
		epoch:    time.Now(),
		tracer:   obs.NewTracer(cfg.TraceEvents),
		build:    obs.ReadBuildInfo(),
	}
	s.tracer.NameProcess(servePID, "readys-serve")
	registerComponentGauges(s.metrics.Registry(), s.registry, s.pool)
	s.mux.HandleFunc("/v1/schedule", s.instrument("schedule", true, s.handleSchedule))
	s.mux.HandleFunc("/v1/models", s.instrument("models", true, s.handleModels))
	// Liveness probes and metric scrapes are counted but not traced: a
	// gateway probes each replica's /healthz four times a second by default,
	// which would otherwise crowd the schedule requests out of the ring.
	s.mux.HandleFunc("/healthz", s.instrument("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", false, s.handleMetrics))
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	if cfg.EnablePprof {
		s.registerDebug()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model registry (tests and the daemon's preloading).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics exposes the counter set.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown drains the worker pool: new schedule requests are refused with
// 503 while queued and in-flight rollouts run to completion (or ctx ends).
func (s *Server) Shutdown(ctx context.Context) error {
	return s.pool.Shutdown(ctx)
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the in-flight gauge, per-endpoint
// request/error counters and latency histogram, a request ID (echoed in the
// X-Request-ID response header) and, when traced, an overall request span on
// the request's trace lane.
func (s *Server) instrument(name string, traced bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.reqSeq.Add(1)
		w.Header().Set("X-Request-ID", strconv.FormatInt(id, 10))
		// Adopt the caller's trace (client→serve spans stitch into one
		// timeline) or start a fresh one; children parent to the request span.
		traceID, parentSpan, _ := obs.ExtractTraceContext(r.Header)
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
		link := obs.RootLink(traceID, parentSpan)
		w.Header().Set(obs.HeaderTraceID, traceID)
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, reqInfo{id: id, sc: link.Context()}))
		s.metrics.IncInflight()
		defer s.metrics.DecInflight()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.Observe(name, time.Since(start), sw.status >= 400)
		if traced {
			s.span("request", name, id, start, link,
				obs.Int(obs.KeyRequestID, id), obs.String(obs.KeyEndpoint, name), obs.Int(obs.KeyStatus, int64(sw.status)))
		}
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Printf("serve: writing response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: use GET"))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"models":         s.cfg.ModelsDir,
		"build":          s.build,
		"uptime_seconds": time.Since(s.epoch).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: use GET"))
		return
	}
	write, ctype := s.metrics.reg.WriteJSON, "application/json"
	if r.URL.Query().Get("format") == "prometheus" {
		write, ctype = s.metrics.reg.WriteText, "text/plain; version=0.0.4; charset=utf-8"
	}
	w.Header().Set("Content-Type", ctype)
	if err := write(w); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Printf("serve: writing metrics: %v", err)
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: use GET"))
		return
	}
	models, err := s.registry.List()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ModelsResponse{Dir: s.registry.Dir(), Models: models})
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: use POST"))
		return
	}
	var req ScheduleRequest
	if err := DecodeBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &req); err != nil {
		s.writeError(w, BodyErrorStatus(err), fmt.Errorf("serve: decoding request: %w", err))
		return
	}
	resp, status, err := s.schedule(r.Context(), &req)
	if err != nil {
		if errors.Is(err, ErrBusy) || errors.Is(err, ErrShuttingDown) {
			// Shed, not broken: say when to come back. The gateway relays it.
			w.Header().Set("Retry-After", "1")
		}
		s.writeError(w, status, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// errTrailingData refuses a body that goes on after its JSON object.
var errTrailingData = errors.New("trailing data after the request object")

// DecodeBody decodes a /v1/schedule body from r into v as a replica does, and
// as a gateway does into the head it reads: one JSON object with no unknown
// fields, followed by nothing but whitespace. An error reading r comes back
// as r returned it, so BodyErrorStatus can tell a body over the size limit
// from a malformed one.
func DecodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil || errors.As(err, new(*json.SyntaxError)):
		return errTrailingData
	default:
		return err
	}
}

// BodyErrorStatus is the HTTP status answering a request body that could not
// be read or decoded: 413 when it ran past http.MaxBytesReader's limit, 400
// for anything else, a client that hung up mid-body included.
func BodyErrorStatus(err error) int {
	if errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// schedule answers a decoded request: everything handleSchedule does between
// reading the body and writing the response. On error the status is the HTTP
// code to answer with.
func (s *Server) schedule(ctx context.Context, req *ScheduleRequest) (ScheduleResponse, int, error) {
	fail := func(status int, err error) (ScheduleResponse, int, error) { return ScheduleResponse{}, status, err }
	if err := req.Validate(); err != nil {
		return fail(http.StatusBadRequest, err)
	}
	kind, _ := req.kind() // validated above
	rid := requestID(ctx)
	sc := traceContext(ctx)

	// The model comes before the graph: a request for a checkpoint that is
	// not there costs a directory listing, and one for a resident model finds
	// its problem already built.
	acquireStart := time.Now()
	lease, cacheHit, err := s.registry.Acquire(kind, req.ModelT(), req.CPUs, req.GPUs)
	s.span("model_load", "registry", rid, acquireStart, sc.Child(), obs.Bool(obs.KeyCacheHit, cacheHit))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errModelNotFound) {
			status = http.StatusNotFound
		}
		return fail(status, err)
	}
	tpl, err := lease.template(req)
	if err != nil {
		lease.Release()
		return fail(http.StatusBadRequest, err)
	}

	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()

	var (
		resp   ScheduleResponse
		runErr error
	)
	enqueued := time.Now()
	err = s.pool.Do(ctx, func() {
		s.span("queue_wait", "pool", rid, enqueued, sc.Child())
		defer lease.Release()
		resp, runErr = s.runSchedule(req, tpl, lease, cacheHit, rid, sc)
	})
	switch {
	case errors.Is(err, ErrBusy):
		s.metrics.Rejected()
		return fail(http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrShuttingDown):
		return fail(http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.Timeout()
		return fail(http.StatusGatewayTimeout, fmt.Errorf("serve: request exceeded %s", s.cfg.RequestTimeout))
	case err != nil: // client went away; the rollout finishes in background
		return fail(http.StatusServiceUnavailable, err)
	}
	if runErr != nil {
		return fail(http.StatusInternalServerError, runErr)
	}
	s.metrics.Scheduled()
	return resp, http.StatusOK, nil
}

// runSchedule executes one policy rollout plus the MCT reference on a worker
// goroutine. The leased clone is exclusively ours for the duration, so the
// forward passes share no mutable state with other workers. Both runs happen
// in the clone's simulator memory, which is why the placements are taken out
// of the rollout's result before the reference run reuses it. The rollout and
// the reference are recorded as spans on the request's trace lane; what the
// policy counted over the rollout goes on the rollout span and into the
// readys_decide_* counters.
func (s *Server) runSchedule(req *ScheduleRequest, tpl *template, lease *Lease, cacheHit bool, rid int64, sc obs.SpanContext) (ScheduleResponse, error) {
	start := time.Now()
	prob := tpl.prob
	prob.Sigma = req.Sigma
	runner := lease.Runner()
	pol := lease.Policy()
	before := pol.Stats
	res, err := prob.SimulateOn(runner, timedPolicy{inner: pol, metrics: s.metrics}, lease.Rand(req.Seed))
	counted := pol.Stats.Sub(before)
	s.metrics.ObserveDecideStats(counted)
	s.span("rollout", "sim", rid, start, sc.Child(), obs.Int(obs.KeyTasks, int64(prob.Graph.NumTasks())),
		obs.Int(obs.KeyDecisions, int64(res.Decisions)), obs.Int(obs.KeyForwards, int64(counted.Forwards)))
	if err != nil {
		return ScheduleResponse{}, fmt.Errorf("serve: rollout: %w", err)
	}
	// Never hand out an infeasible plan: re-validate every schedule against
	// precedence and resource-exclusivity constraints before answering.
	if err := runner.Validate(prob.Graph, prob.Platform.Size(), res); err != nil {
		return ScheduleResponse{}, fmt.Errorf("serve: produced invalid schedule: %w", err)
	}
	resp := ScheduleResponse{
		Model:         lease.ModelName(),
		CacheHit:      cacheHit,
		Makespan:      res.Makespan,
		HEFTMakespan:  tpl.heft,
		NumTasks:      prob.Graph.NumTasks(),
		Decisions:     res.Decisions,
		IdleDecisions: res.IdleDecisions,
		Placements:    make([]PlacementJSON, 0, len(res.Trace)),
	}
	for _, p := range res.Trace {
		resp.Placements = append(resp.Placements, PlacementJSON{
			Task:     p.Task,
			Name:     prob.Graph.Tasks[p.Task].Name,
			Resource: p.Resource,
			Type:     prob.Platform.Resources[p.Resource].Type.String(),
			Start:    p.Start,
			End:      p.End,
		})
	}

	refStart := time.Now()
	mctRes, err := prob.SimulateOn(runner, sched.MCTPolicy{}, lease.Rand(req.Seed))
	s.span("references", "sim", rid, refStart, sc.Child())
	if err != nil {
		return ScheduleResponse{}, fmt.Errorf("serve: MCT reference: %w", err)
	}
	resp.MCTMakespan = mctRes.Makespan
	if resp.Makespan > 0 {
		resp.ImproveVsHEFT = resp.HEFTMakespan / resp.Makespan
		resp.ImproveVsMCT = resp.MCTMakespan / resp.Makespan
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}
