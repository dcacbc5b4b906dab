package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
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
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints leak operational detail, so they must be asked for
	// (readys-serve -pprof).
	EnablePprof bool
	// TraceEvents is the request-span ring capacity (<= 0 picks
	// DefaultTraceEvents). Only the most recent window is kept, so tracing is
	// always on and bounded.
	TraceEvents int
}

// DefaultTraceEvents is a serving daemon's default request-span ring: 8 192
// spans, ≈ 185 KiB once full at ≈ 23 bytes a span (each encoded against the
// one before it, see obs.Tracer) and at most 816 KiB at obs.Tracer's widest
// event. It grows in 32 KiB chunks as it fills
// (obs.Tracer), so a daemon keeps only the spans it has recorded. A
// successful schedule request records five spans whatever its size (request,
// model_load, queue_wait, rollout, references; its decisions are counted on
// the rollout span and in the readys_decide_* metrics). /healthz probes and
// /metrics scrapes record none, so the ring holds the last ≈ 1 600 schedule
// requests however often a gateway probes. A gateway sizes its own default
// ring from this one (gateway.Config.TraceEvents).
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

// servePID is the pid under which the server records trace events.
const servePID = 1

// Server is the online scheduling service: registry + pool + metrics behind
// an obs.Front on a stdlib net/http mux.
type Server struct {
	cfg      Config
	registry *Registry
	pool     *Pool
	metrics  *Metrics
	mux      *http.ServeMux

	// front counts, identifies and traces every request; tracer is the
	// bounded ring it records the request spans into.
	front  *obs.Front
	tracer *obs.Tracer
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
		// Idle deciders, across all models, are capped at the worker count:
		// no more rollouts than that run at once.
		registry: NewRegistry(cfg.ModelsDir, cfg.MaxModels, cfg.Workers),
		pool:     NewPool(cfg.Workers, cfg.Queue),
		metrics:  NewMetrics(),
		mux:      http.NewServeMux(),
		tracer:   obs.NewTracer(cfg.TraceEvents),
		build:    obs.ReadBuildInfo(),
	}
	s.front = obs.NewFront("serve", servePID, s.tracer, s.metrics.reg, s.metrics, cfg.Logger)
	registerComponentGauges(s.metrics.reg, s.registry, s.pool)
	s.mux.HandleFunc("/v1/schedule", s.front.Wrap("schedule", true, s.handleSchedule))
	s.mux.HandleFunc("/v1/models", s.front.Wrap("models", true, s.handleModels))
	// A gateway probes each replica's /healthz four times a second by
	// default: counted, not traced.
	s.mux.HandleFunc("/healthz", s.front.Wrap("healthz", false, s.handleHealthz))
	s.front.Mount(s.mux)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model registry (tests and the daemon's preloading).
func (s *Server) Registry() *Registry { return s.registry }

// Shutdown drains the worker pool: new schedule requests are refused with
// 503 while queued and in-flight rollouts run to completion (or ctx ends).
func (s *Server) Shutdown(ctx context.Context) error {
	return s.pool.Shutdown(ctx)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ int64, _ obs.Link) {
	if !s.front.Allow(w, r, http.MethodGet) {
		return
	}
	s.front.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"models":         s.cfg.ModelsDir,
		"build":          s.build,
		"uptime_seconds": s.front.Uptime().Seconds(),
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request, _ int64, _ obs.Link) {
	if !s.front.Allow(w, r, http.MethodGet) {
		return
	}
	models, err := s.registry.List()
	if err != nil {
		s.front.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.front.WriteJSON(w, http.StatusOK, ModelsResponse{Dir: s.registry.Dir(), Models: models})
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request, rid int64, link obs.Link) {
	if !s.front.Allow(w, r, http.MethodPost) {
		return
	}
	var req ScheduleRequest
	if err := DecodeBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &req); err != nil {
		s.front.WriteError(w, BodyErrorStatus(err), fmt.Errorf("serve: decoding request: %w", err))
		return
	}
	resp, status, err := s.schedule(r.Context(), &req, rid, link)
	if err != nil {
		if errors.Is(err, ErrBusy) || errors.Is(err, ErrShuttingDown) {
			// Shed, not broken: say when to come back. The gateway relays it.
			w.Header().Set("Retry-After", "1")
		}
		s.front.WriteError(w, status, err)
		return
	}
	s.front.WriteJSON(w, http.StatusOK, resp)
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
// reading the body and writing the response. Its spans go on lane rid as
// children of link, the request span's. On error the status is the HTTP code
// to answer with.
func (s *Server) schedule(ctx context.Context, req *ScheduleRequest, rid int64, link obs.Link) (ScheduleResponse, int, error) {
	fail := func(status int, err error) (ScheduleResponse, int, error) { return ScheduleResponse{}, status, err }
	if err := req.Validate(); err != nil {
		return fail(http.StatusBadRequest, err)
	}
	kind, _ := req.kind() // validated above

	// The model comes before the graph: a request for a checkpoint that is
	// not there costs a directory listing, and one for a resident model finds
	// its problem already built.
	acquireStart := time.Now()
	lease, cacheHit, err := s.registry.Acquire(kind, req.ModelT(), req.CPUs, req.GPUs)
	s.front.Span("model_load", "registry", rid, acquireStart, link.Child(), obs.Bool(obs.KeyCacheHit, cacheHit))
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
		s.front.Span("queue_wait", "pool", rid, enqueued, link.Child())
		defer lease.Release()
		resp, runErr = s.runSchedule(req, tpl, lease, cacheHit, rid, link)
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
// goroutine. The lease's decider is exclusively ours for the duration and the
// agent is only read, so the forward passes share no mutable state with other
// workers. Both runs happen in the decider's simulator memory, which is why
// the placements are taken out of the rollout's result before the reference
// run reuses it. The rollout and the reference are recorded as spans on the
// request's trace lane; what the policy counted over the rollout goes on the
// rollout span and into the readys_decide_* counters.
func (s *Server) runSchedule(req *ScheduleRequest, tpl *template, lease *Lease, cacheHit bool, rid int64, link obs.Link) (ScheduleResponse, error) {
	start := time.Now()
	prob := tpl.prob
	prob.Sigma = req.Sigma
	runner := lease.Runner()
	pol := lease.Policy()
	before := pol.Stats
	res, err := prob.SimulateOn(runner, timedPolicy{inner: pol, metrics: s.metrics}, lease.Rand(req.Seed))
	counted := pol.Stats.Sub(before)
	s.metrics.ObserveDecideStats(counted)
	s.front.Span("rollout", "sim", rid, start, link.Child(), obs.Int(obs.KeyTasks, int64(prob.Graph.NumTasks())),
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
	s.front.Span("references", "sim", rid, refStart, link.Child())
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
