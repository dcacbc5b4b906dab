package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"readys/internal/obs"
)

// fleetPID is the pid under which the dispatcher records trace events.
const fleetPID = 1

// jobsTID is the trace lane carrying job lifecycle instants (submit/done).
// Request lanes start at tid 1 (reqSeq), so 0 is free.
const jobsTID = 0

// Canonical artifact names attached to completed jobs.
const (
	ArtifactCheckpoint = "checkpoint" // trained agent parameters (train jobs)
	ArtifactHistory    = "history"    // per-episode training stats JSONL (train jobs)
	ArtifactResult     = "result"     // comparison points / figure CSV (eval, figure jobs)
)

// Wire types of the fleet HTTP API. Every response body is JSON; errors are
// {"error": "..."} with a 4xx/5xx status.

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	Spec JobSpec `json:"spec"`
}

// SubmitResponse reports the accepted (or deduplicated) job.
type SubmitResponse struct {
	Job *Job `json:"job"`
	// Deduped is true when an existing job with the same spec hash answered
	// the submission.
	Deduped bool `json:"deduped"`
}

// RegisterRequest is the body of POST /v1/workers/register.
type RegisterRequest struct {
	Name string `json:"name"`
}

// RegisterResponse hands the worker its ID and the lease TTL it must
// heartbeat within.
type RegisterResponse struct {
	WorkerID   string `json:"worker_id"`
	LeaseTTLMS int64  `json:"lease_ttl_ms"`
}

// WorkerRequest identifies the calling worker (deregister, lease).
type WorkerRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseResponse carries one leased job; the endpoint answers 204 when the
// queue has nothing eligible.
type LeaseResponse struct {
	Job        *Job  `json:"job"`
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// HeartbeatRequest extends a lease and optionally streams progress.
type HeartbeatRequest struct {
	WorkerID string    `json:"worker_id"`
	JobID    string    `json:"job_id"`
	Progress *Progress `json:"progress,omitempty"`
}

// CompleteRequest finishes a job; artifact digests must already be uploaded.
type CompleteRequest struct {
	WorkerID  string            `json:"worker_id"`
	JobID     string            `json:"job_id"`
	Artifacts map[string]string `json:"artifacts,omitempty"`
	Result    json.RawMessage   `json:"result,omitempty"`
}

// FailRequest reports a worker-side failure.
type FailRequest struct {
	WorkerID string `json:"worker_id"`
	JobID    string `json:"job_id"`
	Error    string `json:"error"`
}

// PutArtifactResponse is the answer to PUT /v1/artifacts.
type PutArtifactResponse struct {
	Digest string `json:"digest"`
	Size   int    `json:"size"`
}

// JobsResponse lists the queue.
type JobsResponse struct {
	Jobs []*Job `json:"jobs"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Handler returns the dispatcher's HTTP handler.
func (d *Dispatcher) Handler() http.Handler { return d.mux }

func (d *Dispatcher) registerHandlers() {
	d.mux.HandleFunc("/v1/jobs", d.instrument("jobs", d.handleJobs))
	d.mux.HandleFunc("/v1/jobs/", d.instrument("job", d.handleJob))
	d.mux.HandleFunc("/v1/workers/register", d.instrument("register", d.handleRegister))
	d.mux.HandleFunc("/v1/workers/deregister", d.instrument("deregister", d.handleDeregister))
	d.mux.HandleFunc("/v1/lease", d.instrument("lease", d.handleLease))
	d.mux.HandleFunc("/v1/heartbeat", d.instrument("heartbeat", d.handleHeartbeat))
	d.mux.HandleFunc("/v1/complete", d.instrument("complete", d.handleComplete))
	d.mux.HandleFunc("/v1/fail", d.instrument("fail", d.handleFail))
	d.mux.HandleFunc("/v1/artifacts", d.instrument("artifact_put", d.handlePutArtifact))
	d.mux.HandleFunc("/v1/artifacts/", d.instrument("artifact_get", d.handleGetArtifact))
	d.mux.HandleFunc("/healthz", d.instrument("healthz", d.handleHealthz))
	d.mux.HandleFunc("/metrics", d.instrument("metrics", d.handleMetrics))
	d.mux.HandleFunc("/debug/trace", d.handleTrace)
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

// instrument wraps a handler with per-endpoint counters, a latency
// histogram, a request ID (echoed as X-Request-ID) and a request span on the
// dispatcher's trace ring.
func (d *Dispatcher) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := d.reqSeq.Add(1)
		w.Header().Set("X-Request-ID", strconv.FormatInt(id, 10))
		// Adopt the caller's trace so worker- and client-originated requests
		// stitch into their job's timeline; mint one otherwise.
		traceID, parentSpan, _ := obs.ExtractTraceContext(r.Header)
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
		sc := obs.SpanContext{TraceID: traceID, SpanID: obs.NewSpanID()}
		w.Header().Set(obs.HeaderTraceID, traceID)
		r = r.WithContext(context.WithValue(r.Context(), traceKey{}, sc))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		d.metrics.ObserveHTTP(name, time.Since(start), sw.status >= 400)
		d.tracer.Complete(name, "request", fleetPID, id,
			float64(start.Sub(d.epoch))/float64(time.Microsecond),
			float64(time.Since(start))/float64(time.Microsecond),
			obs.SpanArgs(map[string]any{"request_id": id, "endpoint": name, "status": sw.status},
				sc.TraceID, sc.SpanID, parentSpan))
	}
}

// traceKey carries the request span's trace context through the request
// context, so handlers spawning further work (job submission) can parent it.
type traceKey struct{}

// requestTrace returns the trace context instrument() assigned (zero when the
// handler is exercised directly in tests).
func requestTrace(ctx context.Context) obs.SpanContext {
	sc, _ := ctx.Value(traceKey{}).(obs.SpanContext)
	return sc
}

func (d *Dispatcher) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		d.logf("fleet: writing response: %v", err)
	}
}

func (d *Dispatcher) writeError(w http.ResponseWriter, status int, err error) {
	d.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// decode parses a JSON request body with the configured size cap.
func (d *Dispatcher) decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, d.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("fleet: decoding request: %w", err)
	}
	return nil
}

// leaseStatus maps dispatcher errors onto HTTP statuses: lost leases are
// 409 (the worker must abandon), unknown workers 404, completions citing
// missing artifacts 412 (the client must upload before completing).
func (d *Dispatcher) leaseStatus(err error) int {
	switch {
	case errors.Is(err, ErrLeaseLost):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrArtifactMissing):
		return http.StatusPreconditionFailed
	default:
		return http.StatusInternalServerError
	}
}

func (d *Dispatcher) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req SubmitRequest
		if err := d.decode(w, r, &req); err != nil {
			d.writeError(w, http.StatusBadRequest, err)
			return
		}
		sc := requestTrace(r.Context())
		job, deduped, err := d.submit(req.Spec, sc.TraceID, sc.SpanID)
		if err != nil {
			d.writeError(w, http.StatusBadRequest, err)
			return
		}
		d.writeJSON(w, http.StatusOK, SubmitResponse{Job: job, Deduped: deduped})
	case http.MethodGet:
		d.writeJSON(w, http.StatusOK, JobsResponse{Jobs: d.Jobs()})
	default:
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use GET or POST"))
	}
}

func (d *Dispatcher) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use GET"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	job, err := d.Job(id)
	if err != nil {
		d.writeError(w, http.StatusNotFound, err)
		return
	}
	d.writeJSON(w, http.StatusOK, job)
}

func (d *Dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use POST"))
		return
	}
	var req RegisterRequest
	if err := d.decode(w, r, &req); err != nil {
		d.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Name == "" {
		req.Name = "worker"
	}
	ws := d.Register(req.Name)
	d.writeJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:   ws.ID,
		LeaseTTLMS: d.cfg.LeaseTTL.Milliseconds(),
	})
}

func (d *Dispatcher) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use POST"))
		return
	}
	var req WorkerRequest
	if err := d.decode(w, r, &req); err != nil {
		d.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := d.Deregister(req.WorkerID); err != nil {
		d.writeError(w, d.leaseStatus(err), err)
		return
	}
	d.writeJSON(w, http.StatusOK, map[string]string{"status": "deregistered"})
}

func (d *Dispatcher) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use POST"))
		return
	}
	var req WorkerRequest
	if err := d.decode(w, r, &req); err != nil {
		d.writeError(w, http.StatusBadRequest, err)
		return
	}
	job, ttl, err := d.Lease(req.WorkerID)
	if err != nil {
		d.writeError(w, d.leaseStatus(err), err)
		return
	}
	if job == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	d.writeJSON(w, http.StatusOK, LeaseResponse{Job: job, LeaseTTLMS: ttl.Milliseconds()})
}

func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use POST"))
		return
	}
	var req HeartbeatRequest
	if err := d.decode(w, r, &req); err != nil {
		d.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := d.Heartbeat(req.WorkerID, req.JobID, req.Progress); err != nil {
		d.writeError(w, d.leaseStatus(err), err)
		return
	}
	d.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (d *Dispatcher) handleComplete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use POST"))
		return
	}
	var req CompleteRequest
	if err := d.decode(w, r, &req); err != nil {
		d.writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := d.Complete(req.WorkerID, req.JobID, req.Artifacts, req.Result)
	if err != nil {
		d.writeError(w, d.leaseStatus(err), err)
		return
	}
	d.writeJSON(w, http.StatusOK, job)
}

func (d *Dispatcher) handleFail(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use POST"))
		return
	}
	var req FailRequest
	if err := d.decode(w, r, &req); err != nil {
		d.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := d.Fail(req.WorkerID, req.JobID, req.Error); err != nil {
		d.writeError(w, d.leaseStatus(err), err)
		return
	}
	d.writeJSON(w, http.StatusOK, map[string]string{"status": "requeued"})
}

func (d *Dispatcher) handlePutArtifact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut && r.Method != http.MethodPost {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use PUT"))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, d.cfg.MaxBodyBytes))
	if err != nil {
		d.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("fleet: reading artifact: %w", err))
		return
	}
	digest, err := d.store.Put(data)
	if err != nil {
		d.writeError(w, http.StatusInternalServerError, err)
		return
	}
	d.metrics.artifactBytes.Add(uint64(len(data)))
	d.writeJSON(w, http.StatusOK, PutArtifactResponse{Digest: digest, Size: len(data)})
}

func (d *Dispatcher) handleGetArtifact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use GET"))
		return
	}
	digest := strings.TrimPrefix(r.URL.Path, "/v1/artifacts/")
	data, err := d.store.Get(digest)
	if err != nil {
		status := http.StatusNotFound
		if !digestRE.MatchString(digest) {
			status = http.StatusBadRequest
		}
		d.writeError(w, status, fmt.Errorf("fleet: artifact %s: %w", digest, err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (d *Dispatcher) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use GET"))
		return
	}
	d.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"wal":            d.cfg.WALPath,
		"build":          d.build,
		"uptime_seconds": time.Since(d.epoch).Seconds(),
	})
}

func (d *Dispatcher) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use GET"))
		return
	}
	write, ctype := d.metrics.reg.WriteJSON, "application/json"
	if r.URL.Query().Get("format") == "prometheus" {
		write, ctype = d.metrics.reg.WriteText, "text/plain; version=0.0.4; charset=utf-8"
	}
	w.Header().Set("Content-Type", ctype)
	if err := write(w); err != nil {
		d.logf("fleet: writing metrics: %v", err)
	}
}

// handleTrace exports the request-span ring as Chrome trace-event JSON.
func (d *Dispatcher) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		d.writeError(w, http.StatusMethodNotAllowed, errors.New("fleet: use GET"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := d.tracer.WriteChromeTrace(w); err != nil {
		d.logf("fleet: writing trace: %v", err)
	}
}
