package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"readys/internal/obs"
	"readys/internal/sim"
)

// servePID is the pid under which the server records trace events.
const servePID = 1

// ridKey carries the per-request info through the request context.
type ridKey struct{}

// reqInfo is what instrument() attaches to the request context: the numeric
// request ID (the trace lane) and the request span's distributed-trace
// identity.
type reqInfo struct {
	id int64
	sc obs.SpanContext
}

// requestID returns the ID instrument() assigned to this request (0 when the
// request did not pass through instrument, e.g. in direct handler tests).
func requestID(ctx context.Context) int64 {
	info, _ := ctx.Value(ridKey{}).(reqInfo)
	return info.id
}

// traceContext returns the request span's trace identity: children record it
// as their parent so client→serve→stage spans stitch across processes.
func traceContext(ctx context.Context) obs.SpanContext {
	info, _ := ctx.Value(ridKey{}).(reqInfo)
	return info.sc
}

// tsMicros converts a wall-clock instant into trace microseconds relative to
// server start.
func (s *Server) tsMicros(t time.Time) float64 {
	return float64(t.Sub(s.epoch)) / float64(time.Microsecond)
}

// span records a completed slice on the request's lane. Each request gets its
// own tid, so its model-load / queue-wait / rollout / references slices
// render as one row in Perfetto; the ring bounds total memory. Children of the
// request span pass sc.Child() as their link (the zero Link, hence a plain
// slice, on requests that did not pass through instrument).
func (s *Server) span(name, cat string, tid int64, start time.Time, link obs.Link, attrs ...obs.Attr) {
	s.tracer.Span(name, cat, servePID, tid, s.tsMicros(start),
		float64(time.Since(start))/float64(time.Microsecond), link, attrs...)
}

// timedPolicy wraps the inference policy and observes the wall-clock latency
// of every scheduling decision into readys_decide_latency_us. A decision is
// counted, not traced: the rollout span and the readys_decide_* counters carry
// what the policy's DecideStats counted over the request.
type timedPolicy struct {
	inner   sim.Policy
	metrics *Metrics
}

func (p timedPolicy) Reset(st *sim.State) { p.inner.Reset(st) }

func (p timedPolicy) Decide(st *sim.State, r int) int {
	start := time.Now()
	task := p.inner.Decide(st, r)
	p.metrics.ObserveDecide(time.Since(start))
	return task
}

// handleTrace exports the request-span ring buffer as Chrome trace-event
// JSON, loadable in chrome://tracing or https://ui.perfetto.dev.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: use GET"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.tracer.WriteChromeTrace(w); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Printf("serve: writing trace: %v", err)
	}
}

// handleRuntime serves expvar-style runtime gauges (goroutines, heap, GC).
// Registered only when Config.EnablePprof is set.
func (s *Server) handleRuntime(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: use GET"))
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"goroutines":       runtime.NumGoroutine(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"heap_alloc_bytes": ms.HeapAlloc,
		"heap_objects":     ms.HeapObjects,
		"total_alloc":      ms.TotalAlloc,
		"num_gc":           ms.NumGC,
		"uptime_seconds":   time.Since(s.epoch).Seconds(),
	})
}

// registerDebug mounts the optional profiling surface: net/http/pprof and
// the runtime gauge endpoint. Off by default (readys-serve -pprof enables
// it); when disabled none of these routes exist, so they 404.
func (s *Server) registerDebug() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/debug/runtime", s.handleRuntime)
}

// registerComponentGauges exposes registry and pool occupancy on /metrics
// without coupling Metrics to either component.
func registerComponentGauges(reg *obs.Registry, registry *Registry, pool *Pool) {
	reg.GaugeFunc("readys_model_cache_resident", "Checkpoints currently resident in the LRU registry.",
		func() float64 { resident, _, _, _ := registry.Stats(); return float64(resident) })
	reg.GaugeFunc("readys_model_cache_hits_total", "Model cache hits.",
		func() float64 { _, hits, _, _ := registry.Stats(); return float64(hits) })
	reg.GaugeFunc("readys_model_cache_misses_total", "Model cache misses.",
		func() float64 { _, _, misses, _ := registry.Stats(); return float64(misses) })
	reg.GaugeFunc("readys_model_cache_evicted_total", "Checkpoints evicted from the LRU registry.",
		func() float64 { _, _, _, evicted := registry.Stats(); return float64(evicted) })
	reg.GaugeFunc("readys_pool_queued", "Jobs waiting in the bounded queue.",
		func() float64 { return float64(pool.Queued()) })
	reg.GaugeFunc("readys_pool_running", "Jobs currently executing.",
		func() float64 { return float64(pool.Running()) })
	reg.GaugeFunc("readys_rollout_workers", "Default rollout worker count on this host (GOMAXPROCS), the parallelism a training batch collects episodes with.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
}
