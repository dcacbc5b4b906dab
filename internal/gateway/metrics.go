package gateway

import (
	"time"

	"readys/internal/obs"
)

// Metrics is the gateway's counter set, backed by the shared obs registry.
// All methods are safe for concurrent use.
type Metrics struct {
	start time.Time
	reg   *obs.Registry

	requests *obs.CounterVec
	errors   *obs.CounterVec
	// replicaRequests counts forwards per replica; replicaHealthy is 1 while
	// a replica is believed alive, 0 once a probe or a failed forward marked
	// it down.
	replicaRequests *obs.CounterVec
	replicaHealthy  *obs.GaugeVec
	// failovers counts retries on a different replica after a forward failed
	// — the signal that a replica died with requests in flight.
	failovers *obs.Counter
}

// NewMetrics returns an empty metric set anchored at now.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		start:           time.Now(),
		reg:             reg,
		requests:        reg.CounterVec("readys_gateway_requests_total", "Gateway HTTP requests by endpoint.", "endpoint"),
		errors:          reg.CounterVec("readys_gateway_errors_total", "Gateway HTTP responses with status >= 400 by endpoint.", "endpoint"),
		replicaRequests: reg.CounterVec("readys_gateway_replica_requests_total", "Requests forwarded per replica.", "replica"),
		replicaHealthy:  reg.GaugeVec("readys_gateway_replica_healthy", "Replica health (1 healthy, 0 down).", "replica"),
		failovers:       reg.Counter("readys_gateway_failovers_total", "Requests retried on another replica after a forward failed."),
	}
	reg.GaugeFunc("readys_gateway_uptime_seconds", "Seconds since the gateway started.",
		func() float64 { return time.Since(m.start).Seconds() })
	return m
}

// BeginRequest counts one inbound request against an endpoint
// (obs.RequestCounter).
func (m *Metrics) BeginRequest(endpoint string) { m.requests.With(endpoint).Inc() }

// EndRequest counts a response with status >= 400 against its endpoint
// (obs.RequestCounter).
func (m *Metrics) EndRequest(endpoint string, _ time.Duration, status int) {
	if status >= 400 {
		m.errors.With(endpoint).Inc()
	}
}

// ObserveReplicaRequest counts one forward to a replica.
func (m *Metrics) ObserveReplicaRequest(url string) { m.replicaRequests.With(url).Inc() }

// SetReplicaHealth records a replica's health state.
func (m *Metrics) SetReplicaHealth(url string, healthy bool) {
	var v int64
	if healthy {
		v = 1
	}
	m.replicaHealthy.With(url).Set(v)
}

// Failover counts one retry on a different replica.
func (m *Metrics) Failover() { m.failovers.Inc() }

// Failovers returns the failover count (tests and the benchmark harness).
func (m *Metrics) Failovers() uint64 { return m.failovers.Value() }
