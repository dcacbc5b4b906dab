package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"readys/internal/exp"
	"readys/internal/obs"
)

// Backoff: a failed idempotent request is re-sent up to retries times,
// sleeping retryBase before the first retry and doubling per attempt, each
// delay jittered to ±50% so a worker fleet hitting a briefly-down dispatcher
// does not retry in lockstep.
const (
	retries   = 3
	retryBase = 25 * time.Millisecond
)

// Client is the typed HTTP client of the fleet API, used by workers, the
// grid submitter and tests. It is safe for concurrent use.
//
// Idempotent calls (Register, Lease, Heartbeat and the read-only lookups)
// transparently retry transient failures — transport errors and 5xx
// responses — with jittered exponential backoff. Application-level outcomes
// (409 lease conflicts, 404s, 412 artifact refusals) are never retried, and
// neither are non-idempotent calls such as Submit, Complete and Fail.
type Client struct {
	// BaseURL is the dispatcher root, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// HTTPClient defaults to a client with a 30s timeout.
	HTTPClient *http.Client

	// trace, when set, is injected into every outbound request's headers so
	// dispatcher-side request spans join the caller's trace. Workers set it
	// per leased job (SetTraceContext) so heartbeats, uploads and the
	// completion all land in the job's timeline.
	trace atomic.Pointer[obs.SpanContext]
}

// SetTraceContext makes every subsequent request carry the given trace
// context in its headers (X-Trace-ID / X-Parent-Span-ID).
func (c *Client) SetTraceContext(sc obs.SpanContext) { c.trace.Store(&sc) }

// ClearTraceContext stops injecting trace headers.
func (c *Client) ClearTraceContext() { c.trace.Store(nil) }

// injectTrace stamps the current trace context (if any) onto h.
func (c *Client) injectTrace(h http.Header) {
	if sc := c.trace.Load(); sc != nil {
		sc.Inject(h)
	}
}

// NewClient returns a client for the dispatcher at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// backoffDelay is the sleep before retry attempt i (1-based): the base delay
// doubled per attempt, jittered uniformly over [0.5d, 1.5d).
func backoffDelay(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// retriable reports whether a request outcome is worth re-sending: transport
// errors (no status at all) and server-side 5xx failures. Every 4xx is an
// application answer — a retry would just repeat it.
func retriable(status int, err error) bool {
	return (err != nil && status == 0) || status >= http.StatusInternalServerError
}

// do sends a JSON request and decodes a JSON response into out (out may be
// nil). wantStatus lists acceptable statuses; anything else is decoded as an
// ErrorResponse. Non-idempotent calls use do; idempotent ones doIdempotent.
func (c *Client) do(method, path string, body, out any, wantStatus ...int) (int, error) {
	return c.send(method, path, body, out, false, wantStatus...)
}

// doIdempotent is do with transient-failure retries.
func (c *Client) doIdempotent(method, path string, body, out any, wantStatus ...int) (int, error) {
	return c.send(method, path, body, out, true, wantStatus...)
}

func (c *Client) send(method, path string, body, out any, retry bool, wantStatus ...int) (int, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return 0, fmt.Errorf("fleet: encoding request: %w", err)
		}
	}
	attempts := 1
	if retry {
		attempts += retries
	}
	var (
		status int
		err    error
	)
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoffDelay(retryBase, i))
		}
		status, err = c.doOnce(method, path, data, body != nil, out, wantStatus...)
		if !retriable(status, err) {
			break
		}
	}
	return status, err
}

// doOnce performs a single attempt; the request is rebuilt from the
// pre-marshalled body so retries never re-send a drained reader.
func (c *Client) doOnce(method, path string, data []byte, hasBody bool, out any, wantStatus ...int) (int, error) {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return 0, err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	c.injectTrace(req.Header)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	for _, s := range wantStatus {
		if resp.StatusCode == s {
			if out != nil && resp.StatusCode != http.StatusNoContent {
				if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
					return resp.StatusCode, fmt.Errorf("fleet: decoding response: %w", err)
				}
			}
			return resp.StatusCode, nil
		}
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		return resp.StatusCode, fmt.Errorf("fleet: %s %s: unexpected status %d", method, path, resp.StatusCode)
	}
	return resp.StatusCode, fmt.Errorf("fleet: %s %s: %s (status %d)", method, path, e.Error, resp.StatusCode)
}

// Submit enqueues (or dedups) a job.
func (c *Client) Submit(spec JobSpec) (*Job, bool, error) {
	var resp SubmitResponse
	if _, err := c.do(http.MethodPost, "/v1/jobs", SubmitRequest{Spec: spec}, &resp, http.StatusOK); err != nil {
		return nil, false, err
	}
	return resp.Job, resp.Deduped, nil
}

// Job fetches one job by ID.
func (c *Client) Job(id string) (*Job, error) {
	var j Job
	if _, err := c.doIdempotent(http.MethodGet, "/v1/jobs/"+id, nil, &j, http.StatusOK); err != nil {
		return nil, err
	}
	return &j, nil
}

// Register registers a worker and returns its ID plus the lease TTL.
// Retried on transient failures: a duplicate registration merely leaves an
// orphan worker entry that expires with its lease.
func (c *Client) Register(name string) (string, time.Duration, error) {
	var resp RegisterResponse
	if _, err := c.doIdempotent(http.MethodPost, "/v1/workers/register", RegisterRequest{Name: name}, &resp, http.StatusOK); err != nil {
		return "", 0, err
	}
	return resp.WorkerID, time.Duration(resp.LeaseTTLMS) * time.Millisecond, nil
}

// Deregister removes the worker from the dispatcher.
func (c *Client) Deregister(workerID string) error {
	_, err := c.do(http.MethodPost, "/v1/workers/deregister", WorkerRequest{WorkerID: workerID}, nil, http.StatusOK)
	return err
}

// Lease pulls the next job; (nil, 0, nil) means the queue had nothing
// eligible. Retried on transient failures: if a lease response is lost in
// transit the leased job sits out one lease TTL and is then requeued, so
// at-least-once delivery is preserved.
func (c *Client) Lease(workerID string) (*Job, time.Duration, error) {
	var resp LeaseResponse
	status, err := c.doIdempotent(http.MethodPost, "/v1/lease", WorkerRequest{WorkerID: workerID}, &resp,
		http.StatusOK, http.StatusNoContent)
	if err != nil {
		return nil, 0, err
	}
	if status == http.StatusNoContent {
		return nil, 0, nil
	}
	return resp.Job, time.Duration(resp.LeaseTTLMS) * time.Millisecond, nil
}

// Heartbeat extends the lease; ErrLeaseLost when the dispatcher already
// requeued the job (the worker must abandon it). Extending a lease is
// idempotent, so transient failures are retried; the 409 conflict is an
// application answer and is not.
func (c *Client) Heartbeat(workerID, jobID string, p *Progress) error {
	status, err := c.doIdempotent(http.MethodPost, "/v1/heartbeat",
		HeartbeatRequest{WorkerID: workerID, JobID: jobID, Progress: p}, nil, http.StatusOK)
	if status == http.StatusConflict {
		return ErrLeaseLost
	}
	return err
}

// Complete finishes a job with its uploaded artifacts. ErrLeaseLost means
// the worker must abandon the job; ErrArtifactMissing means a cited digest
// was never uploaded (or is malformed) and the completion was refused.
func (c *Client) Complete(workerID, jobID string, artifacts map[string]string, result json.RawMessage) error {
	status, err := c.do(http.MethodPost, "/v1/complete",
		CompleteRequest{WorkerID: workerID, JobID: jobID, Artifacts: artifacts, Result: result}, nil, http.StatusOK)
	switch status {
	case http.StatusConflict:
		return ErrLeaseLost
	case http.StatusPreconditionFailed:
		return fmt.Errorf("%w: %v", ErrArtifactMissing, err)
	}
	return err
}

// Fail reports a job failure so the dispatcher requeues it elsewhere.
func (c *Client) Fail(workerID, jobID, msg string) error {
	status, err := c.do(http.MethodPost, "/v1/fail",
		FailRequest{WorkerID: workerID, JobID: jobID, Error: msg}, nil, http.StatusOK)
	if status == http.StatusConflict {
		return ErrLeaseLost
	}
	return err
}

// PutArtifact uploads bytes to the content-addressed store and returns the
// digest, verifying it client-side.
func (c *Client) PutArtifact(data []byte) (string, error) {
	req, err := http.NewRequest(http.MethodPut, c.BaseURL+"/v1/artifacts", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.injectTrace(req.Header)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return "", fmt.Errorf("fleet: uploading artifact: %s (status %d)", e.Error, resp.StatusCode)
	}
	var out PutArtifactResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("fleet: decoding upload response: %w", err)
	}
	if want := exp.HashBytes(data); out.Digest != want {
		return "", fmt.Errorf("fleet: dispatcher hashed artifact to %s, local digest %s", out.Digest, want)
	}
	return out.Digest, nil
}

// GetArtifact downloads a blob and verifies it against its content address.
func (c *Client) GetArtifact(digest string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/v1/artifacts/"+digest, nil)
	if err != nil {
		return nil, err
	}
	c.injectTrace(req.Header)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("fleet: fetching artifact %s: %s (status %d)", digest, e.Error, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if got := exp.HashBytes(data); got != digest {
		return nil, fmt.Errorf("fleet: artifact %s corrupt in transit (content hashes to %s)", digest, got)
	}
	return data, nil
}
