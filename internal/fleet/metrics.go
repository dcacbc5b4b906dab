package fleet

import (
	"time"

	"readys/internal/obs"
)

// jobLatencyBuckets are the job-duration histogram bounds in seconds: fleet
// jobs range from sub-second smoke trainings to multi-hour full-grid cells.
var jobLatencyBuckets = []float64{0.1, 0.5, 1, 5, 15, 60, 300, 900, 3600, 14400}

// httpLatencyBucketsMS mirror the serving daemon's request buckets.
var httpLatencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}

// Metrics is the dispatcher's counter set on the shared obs registry,
// exported at GET /metrics as JSON or Prometheus text exposition.
//
// Queue occupancy is tracked with plain gauges updated on every transition
// (not GaugeFuncs), which keeps the exposition a pure function of the event
// history — the golden exposition test depends on that.
type Metrics struct {
	reg *obs.Registry

	queueDepth  *obs.Gauge // jobs in state pending
	runningJobs *obs.Gauge // jobs in state running
	workers     *obs.Gauge // registered workers

	leaseExpirations *obs.Counter
	retries          *obs.Counter
	dedupHits        *obs.Counter

	submitted *obs.CounterVec // by job type
	completed *obs.CounterVec
	failed    *obs.CounterVec // terminal failures only
	duration  *obs.HistogramVec

	artifactBytes  *obs.Counter
	walCompactions *obs.Counter

	httpRequests *obs.CounterVec
	httpErrors   *obs.CounterVec
	httpLatency  *obs.HistogramVec
}

// NewMetrics returns an empty fleet metric set.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:         reg,
		queueDepth:  reg.Gauge("fleet_queue_depth", "Jobs waiting in the dispatcher queue."),
		runningJobs: reg.Gauge("fleet_jobs_running", "Jobs currently held under a worker lease."),
		workers:     reg.Gauge("fleet_workers_registered", "Workers currently registered."),

		leaseExpirations: reg.Counter("fleet_lease_expirations_total", "Leases expired after missed heartbeats."),
		retries:          reg.Counter("fleet_job_retries_total", "Jobs requeued after a lease expiry or worker failure."),
		dedupHits:        reg.Counter("fleet_dedup_hits_total", "Job submissions answered by an existing job with the same spec hash."),

		submitted: reg.CounterVec("fleet_jobs_submitted_total", "Jobs accepted into the queue by type.", "type"),
		completed: reg.CounterVec("fleet_jobs_completed_total", "Jobs completed by type.", "type"),
		failed:    reg.CounterVec("fleet_jobs_failed_total", "Jobs terminally failed (retry budget spent) by type.", "type"),
		duration:  reg.HistogramVec("fleet_job_duration_seconds", "Wall-clock from first lease to completion by type.", jobLatencyBuckets, "type"),

		artifactBytes:  reg.Counter("fleet_artifact_bytes_total", "Bytes accepted into the artifact store."),
		walCompactions: reg.Counter("fleet_wal_compactions_total", "WAL compaction passes."),

		httpRequests: reg.CounterVec("fleet_http_requests_total", "HTTP requests by endpoint.", "endpoint"),
		httpErrors:   reg.CounterVec("fleet_http_errors_total", "HTTP responses with status >= 400 by endpoint.", "endpoint"),
		httpLatency:  reg.HistogramVec("fleet_http_latency_ms", "Request latency in milliseconds by endpoint.", httpLatencyBucketsMS, "endpoint"),
	}
	return m
}

// Registry exposes the underlying obs registry.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ObserveHTTP records one finished request against an endpoint.
func (m *Metrics) ObserveHTTP(endpoint string, d time.Duration, isError bool) {
	m.httpRequests.With(endpoint).Inc()
	e := m.httpErrors.With(endpoint) // materialise the series even at zero
	if isError {
		e.Inc()
	}
	m.httpLatency.With(endpoint).Observe(float64(d) / float64(time.Millisecond))
}
