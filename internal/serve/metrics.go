package serve

import (
	"runtime"
	"runtime/metrics"
	"time"

	"readys/internal/core"
	"readys/internal/obs"
	"readys/internal/sim"
)

// latencyBucketsMS are the upper bounds (in milliseconds) of the latency
// histogram buckets, chosen around the observed cost of one warm rollout
// (sub-millisecond model access, tens of ms of simulation on larger DAGs).
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// decideBucketsUS are the upper bounds (in microseconds) of the per-decision
// inference latency histogram. The serving hot path targets sub-100µs
// decisions, so the resolution is concentrated there; the tail catches cold
// starts and full rebuilds.
var decideBucketsUS = []float64{5, 10, 25, 50, 100, 250, 1000, 10000}

// Metrics is the service's counter set, backed by the shared obs registry,
// which GET /metrics serves as Prometheus text exposition. All methods are
// safe for concurrent use.
type Metrics struct {
	start time.Time
	reg   *obs.Registry

	requests *obs.CounterVec
	errors   *obs.CounterVec
	latency  *obs.HistogramVec
	decide   *obs.Histogram

	// What the policies counted over the answered rollouts (core.DecideStats).
	forwards, memoHits, windowRows, rebuilds, idle *obs.Counter

	inflight  *obs.Gauge
	rejected  *obs.Counter // 503s from a full queue
	timeouts  *obs.Counter // requests that hit the server-side deadline
	scheduled *obs.Counter // successfully answered schedule requests
}

// NewMetrics returns an empty metric set anchored at now, with the runtime
// gauges (uptime, goroutines, heap) registered.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		start:      time.Now(),
		reg:        reg,
		requests:   reg.CounterVec("readys_http_requests_total", "HTTP requests by endpoint.", "endpoint"),
		errors:     reg.CounterVec("readys_http_errors_total", "HTTP responses with status >= 400 by endpoint.", "endpoint"),
		latency:    reg.HistogramVec("readys_http_latency_ms", "Request latency in milliseconds by endpoint.", latencyBucketsMS, "endpoint"),
		decide:     reg.Histogram("readys_decide_latency_us", "Per-decision inference latency in microseconds.", decideBucketsUS),
		forwards:   reg.Counter("readys_decide_forwards_total", "Decisions that ran the network (memo misses)."),
		memoHits:   reg.Counter("readys_decide_memo_hits_total", "Decisions answered from the forward memo."),
		windowRows: reg.Counter("readys_decide_window_rows_total", "Window rows summed over every decision."),
		rebuilds:   reg.Counter("readys_decide_rebuilds_total", "Decisions whose window was recomputed."),
		idle:       reg.Counter("readys_decide_idle_total", "Decisions that left the asking resource idle (∅)."),
		inflight:   reg.Gauge("readys_http_inflight", "Requests currently being handled."),
		rejected:   reg.Counter("readys_rejected_busy_total", "Backpressure rejections from a full queue (503)."),
		timeouts:   reg.Counter("readys_request_timeouts_total", "Requests that exceeded the server-side deadline."),
		scheduled:  reg.Counter("readys_schedules_answered_total", "Successfully answered schedule requests."),
	}
	reg.GaugeFunc("readys_uptime_seconds", "Seconds since the metric set was created.",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.GaugeFunc("readys_goroutines", "Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("readys_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 {
			// runtime/metrics, not ReadMemStats: a scrape must not stop the world.
			heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
			metrics.Read(heap)
			return float64(heap[0].Value.Uint64())
		})
	return m
}

// BeginRequest counts a request in flight (obs.RequestCounter).
func (m *Metrics) BeginRequest(string) { m.inflight.Add(1) }

// EndRequest records one finished request against an endpoint: its latency,
// and an error when its status is >= 400 (obs.RequestCounter).
func (m *Metrics) EndRequest(endpoint string, d time.Duration, status int) {
	m.requests.With(endpoint).Inc()
	e := m.errors.With(endpoint) // materialise the series even at zero
	if status >= 400 {
		e.Inc()
	}
	m.latency.With(endpoint).Observe(float64(d) / float64(time.Millisecond))
	m.inflight.Add(-1)
}

// ObserveDecide records the wall-clock latency of one scheduling decision.
func (m *Metrics) ObserveDecide(d time.Duration) {
	m.decide.Observe(float64(d) / float64(time.Microsecond))
}

// ObserveDecideStats adds what a policy counted over one rollout.
func (m *Metrics) ObserveDecideStats(d core.DecideStats) {
	m.forwards.Add(uint64(d.Forwards))
	m.memoHits.Add(uint64(d.MemoHits()))
	m.windowRows.Add(uint64(d.WindowRows))
	m.rebuilds.Add(uint64(d.Rebuilds))
	m.idle.Add(uint64(d.Idle))
}

// Rejected counts a backpressure rejection (full queue).
func (m *Metrics) Rejected() { m.rejected.Inc() }

// Timeout counts a request that exceeded the server-side deadline.
func (m *Metrics) Timeout() { m.timeouts.Inc() }

// Scheduled counts a successfully served schedule request.
func (m *Metrics) Scheduled() { m.scheduled.Inc() }

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
