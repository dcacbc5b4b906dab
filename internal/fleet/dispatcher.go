package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"readys/internal/obs"
)

// Sentinel errors mapped to HTTP statuses by the handler layer.
var (
	// ErrLeaseLost means the worker no longer holds the job: its lease
	// expired (and the job was requeued) or the job was completed elsewhere.
	ErrLeaseLost = errors.New("fleet: lease lost")
	// ErrUnknownWorker means the worker ID is not registered.
	ErrUnknownWorker = errors.New("fleet: unknown worker")
	// ErrUnknownJob means the job ID does not exist.
	ErrUnknownJob = errors.New("fleet: unknown job")
	// ErrArtifactMissing means a completion referenced an artifact digest
	// that is malformed or was never uploaded to the store — a client error,
	// not a dispatcher fault.
	ErrArtifactMissing = errors.New("fleet: artifact not uploaded")
)

// Publisher receives completed training checkpoints. serve.(*Registry).Publish
// satisfies it for in-process train → serve loops; DirPublisher writes into a
// shared model directory for daemon deployments.
type Publisher interface {
	Publish(base string, data []byte) error
}

// Config tunes the dispatcher.
type Config struct {
	// WALPath is the queue's write-ahead log file.
	WALPath string
	// ArtifactsDir roots the content-addressed artifact store.
	ArtifactsDir string
	// LeaseTTL is how long a worker may go between heartbeats before its
	// job is requeued.
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per job; the next failure after the
	// budget is spent is terminal.
	MaxAttempts int
	// RetryBackoff is the base requeue delay; attempt n waits
	// RetryBackoff·2^(n-1), capped at 64×.
	RetryBackoff time.Duration
	// SweepInterval is the lease-expiry scan period (default LeaseTTL/4).
	SweepInterval time.Duration
	// CompactMinRecords is the WAL record count below which compaction never
	// triggers.
	CompactMinRecords int
	// MaxBodyBytes bounds request bodies; artifacts (checkpoints, history
	// JSONL) dominate, so the default is generous.
	MaxBodyBytes int64
	// Publisher, if non-nil, receives every completed train job's checkpoint
	// under its canonical model file name.
	Publisher Publisher
	// Logger receives dispatcher diagnostics; nil disables logging.
	Logger *log.Logger
	// TraceEvents is the request-span ring capacity (<= 0 picks the obs
	// default).
	TraceEvents int
}

// DefaultConfig returns production-shaped defaults.
func DefaultConfig() Config {
	return Config{
		WALPath:           "fleet/queue.wal",
		ArtifactsDir:      "fleet/artifacts",
		LeaseTTL:          30 * time.Second,
		MaxAttempts:       3,
		RetryBackoff:      2 * time.Second,
		CompactMinRecords: 256,
		MaxBodyBytes:      256 << 20,
	}
}

// workerState is one registered worker.
type workerState struct {
	ID           string    `json:"id"`
	Name         string    `json:"name"`
	RegisteredAt time.Time `json:"registered_at"`
	LastSeen     time.Time `json:"last_seen"`
}

// lease is one live job assignment.
type lease struct {
	worker   string
	deadline time.Time
}

// Dispatcher owns the durable job queue, the lease table, the artifact store
// and the registered-worker set, and serves the fleet HTTP API.
type Dispatcher struct {
	cfg     Config
	metrics *Metrics
	store   *ArtifactStore
	mux     *http.ServeMux

	epoch  time.Time
	tracer *obs.Tracer
	reqSeq atomic.Int64
	build  obs.BuildInfo

	mu        sync.Mutex
	wal       *WAL
	jobs      map[string]*Job
	byHash    map[string]string // spec hash -> job ID (pending/running/done)
	leases    map[string]*lease // job ID -> lease
	workers   map[string]*workerState
	seq       int64
	workerSeq int64
	closed    bool

	stopSweep chan struct{}
	sweepDone chan struct{}
}

// NewDispatcher replays the WAL at cfg.WALPath and returns a dispatcher
// ready to serve. Jobs that were running when the previous process died are
// requeued (their leases did not survive); the granted attempt stays charged.
func NewDispatcher(cfg Config) (*Dispatcher, error) {
	def := DefaultConfig()
	if cfg.WALPath == "" {
		cfg.WALPath = def.WALPath
	}
	if cfg.ArtifactsDir == "" {
		cfg.ArtifactsDir = def.ArtifactsDir
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = def.LeaseTTL
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = def.MaxAttempts
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = def.RetryBackoff
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.LeaseTTL / 4
	}
	if cfg.CompactMinRecords < 1 {
		cfg.CompactMinRecords = def.CompactMinRecords
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = def.MaxBodyBytes
	}

	store, err := NewArtifactStore(cfg.ArtifactsDir)
	if err != nil {
		return nil, err
	}
	wal, replayed, err := OpenWAL(cfg.WALPath)
	if err != nil {
		return nil, err
	}

	d := &Dispatcher{
		cfg:       cfg,
		metrics:   NewMetrics(),
		store:     store,
		mux:       http.NewServeMux(),
		epoch:     time.Now(),
		tracer:    obs.NewTracer(cfg.TraceEvents),
		wal:       wal,
		jobs:      make(map[string]*Job),
		byHash:    make(map[string]string),
		leases:    make(map[string]*lease),
		workers:   make(map[string]*workerState),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	d.tracer.NameProcess(fleetPID, "readys-fleet")
	d.tracer.NameThread(fleetPID, jobsTID, "jobs")
	d.build = obs.ReadBuildInfo()

	for _, j := range replayed {
		if j.State == StateRunning {
			// The lease died with the previous process; hand the job back to
			// the queue. The attempt stays charged — the work was granted.
			j.State = StatePending
			j.Worker = ""
			if err := d.wal.Append(j); err != nil {
				return nil, err
			}
		}
		d.jobs[j.ID] = j
		if j.State != StateFailed {
			d.byHash[j.Hash] = j.ID
		}
		if j.Seq > d.seq {
			d.seq = j.Seq
		}
		switch j.State {
		case StatePending:
			d.metrics.queueDepth.Add(1)
		}
	}

	d.registerHandlers()
	go d.sweep()
	return d, nil
}

// sweep periodically expires overdue leases. Expiry is also checked lazily
// on every lease/heartbeat call, so the sweeper only bounds the staleness of
// jobs nobody is polling for.
func (d *Dispatcher) sweep() {
	defer close(d.sweepDone)
	t := time.NewTicker(d.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stopSweep:
			return
		case <-t.C:
			d.mu.Lock()
			d.expireLocked(time.Now())
			d.mu.Unlock()
		}
	}
}

// Close stops the sweeper and closes the WAL. In-memory state stays readable.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.stopSweep)
	<-d.sweepDone
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wal.Close()
}

// WriteTrace exports the dispatcher's request and job spans as Chrome
// trace-event JSON — the same document /debug/trace serves, available without
// an HTTP round-trip so an in-process run (fleet smoke) can merge it with the
// worker's export via obs.MergeTraces.
func (d *Dispatcher) WriteTrace(out io.Writer) error { return d.tracer.WriteChromeTrace(out) }

func (d *Dispatcher) logf(format string, args ...any) {
	if d.cfg.Logger != nil {
		d.cfg.Logger.Printf(format, args...)
	}
}

// Submit validates, dedups and enqueues a job. When a non-failed job with
// the same spec hash already exists, that job is returned with deduped=true
// and nothing is enqueued.
func (d *Dispatcher) Submit(spec JobSpec) (*Job, bool, error) {
	return d.submitTraced(spec, "", "")
}

// submitTraced is Submit with the submitter's trace context: the new job
// adopts the caller's trace (or mints one) and gets a job span whose parent
// is the submitting request's span, so dispatcher and worker exports stitch.
// A deduplicated submission keeps the existing job's original trace.
func (d *Dispatcher) submitTraced(spec JobSpec, traceID, parentSpan string) (*Job, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	hash := spec.Hash()
	now := time.Now()

	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byHash[hash]; ok {
		if j, live := d.jobs[id]; live && j.State != StateFailed {
			d.metrics.dedupHits.Inc()
			return j.clone(), true, nil
		}
	}
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	d.seq++
	j := &Job{
		ID:          fmt.Sprintf("j%06d", d.seq),
		Hash:        hash,
		Spec:        spec,
		TraceID:     traceID,
		SpanID:      obs.NewSpanID(),
		State:       StatePending,
		Seq:         d.seq,
		SubmittedAt: now,
	}
	if err := d.wal.Append(j); err != nil {
		d.seq--
		return nil, false, err
	}
	d.jobs[j.ID] = j
	d.byHash[hash] = j.ID
	d.tracer.Instant("job_submit", "job", fleetPID, jobsTID,
		float64(now.Sub(d.epoch))/float64(time.Microsecond),
		obs.SpanArgs(map[string]any{"job_id": j.ID, "type": string(spec.Type)}, j.TraceID, j.SpanID, parentSpan))
	d.metrics.queueDepth.Add(1)
	d.metrics.submitted.With(string(spec.Type)).Inc()
	d.maybeCompactLocked()
	return j.clone(), false, nil
}

// Register adds a worker and returns its assigned ID.
func (d *Dispatcher) Register(name string) *workerState {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.workerSeq++
	w := &workerState{
		ID:           fmt.Sprintf("w%04d-%s", d.workerSeq, name),
		Name:         name,
		RegisteredAt: time.Now(),
		LastSeen:     time.Now(),
	}
	d.workers[w.ID] = w
	d.metrics.workers.Set(int64(len(d.workers)))
	return w
}

// Deregister removes a worker. Any lease it still holds is expired
// immediately, requeueing the job for the survivors.
func (d *Dispatcher) Deregister(workerID string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.workers[workerID]; !ok {
		return ErrUnknownWorker
	}
	delete(d.workers, workerID)
	d.metrics.workers.Set(int64(len(d.workers)))
	for jobID, l := range d.leases {
		if l.worker == workerID {
			d.expireLeaseLocked(jobID, "worker deregistered holding the lease")
		}
	}
	return nil
}

// Lease hands the worker the highest-priority eligible pending job under a
// time-bounded lease, or returns (nil, 0, nil) when nothing is eligible.
func (d *Dispatcher) Lease(workerID string) (*Job, time.Duration, error) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[workerID]
	if !ok {
		return nil, 0, ErrUnknownWorker
	}
	w.LastSeen = now
	d.expireLocked(now)

	var pick *Job
	for _, j := range d.jobs {
		if j.State != StatePending {
			continue
		}
		if j.excludes(workerID) && !d.allWorkersExcludedLocked(j) {
			continue
		}
		if !j.NotBefore.IsZero() && now.Before(j.NotBefore) {
			continue
		}
		if pick == nil ||
			j.Spec.Priority > pick.Spec.Priority ||
			(j.Spec.Priority == pick.Spec.Priority && j.Seq < pick.Seq) {
			pick = j
		}
	}
	if pick == nil {
		return nil, 0, nil
	}

	pick.State = StateRunning
	pick.Worker = workerID
	pick.Attempts++
	if pick.StartedAt.IsZero() {
		pick.StartedAt = now
	}
	if err := d.wal.Append(pick); err != nil {
		pick.State = StatePending
		pick.Worker = ""
		pick.Attempts--
		return nil, 0, err
	}
	d.leases[pick.ID] = &lease{worker: workerID, deadline: now.Add(d.cfg.LeaseTTL)}
	d.metrics.queueDepth.Add(-1)
	d.metrics.runningJobs.Add(1)
	return pick.clone(), d.cfg.LeaseTTL, nil
}

// Heartbeat extends the worker's lease on the job and records streamed
// progress. ErrLeaseLost tells the worker to abandon the job: the dispatcher
// has already requeued (or finished) it.
func (d *Dispatcher) Heartbeat(workerID, jobID string, p *Progress) error {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if w, ok := d.workers[workerID]; ok {
		w.LastSeen = now
	}
	d.expireLocked(now)
	l, ok := d.leases[jobID]
	if !ok || l.worker != workerID {
		return ErrLeaseLost
	}
	l.deadline = now.Add(d.cfg.LeaseTTL)
	if p != nil {
		// Progress is ephemeral observability state: kept in memory (and
		// served on GET /v1/jobs), deliberately not WAL-persisted.
		d.jobs[jobID].Progress = p
	}
	return nil
}

// Complete finishes a job the worker holds: artifacts must already be in the
// store (uploaded via PUT /v1/artifacts), result is a small typed summary.
// Completed train jobs are forwarded to the Publisher when one is wired.
func (d *Dispatcher) Complete(workerID, jobID string, artifacts map[string]string, result json.RawMessage) (*Job, error) {
	now := time.Now()

	d.mu.Lock()
	l, ok := d.leases[jobID]
	if !ok || l.worker != workerID {
		d.mu.Unlock()
		return nil, ErrLeaseLost
	}
	j := d.jobs[jobID]
	for name, digest := range artifacts {
		if !d.store.Has(digest) {
			d.mu.Unlock()
			return nil, fmt.Errorf("%w: %q (%s)", ErrArtifactMissing, name, digest)
		}
	}
	j.State = StateDone
	j.Worker = ""
	j.Artifacts = artifacts
	j.Result = result
	j.FinishedAt = now
	j.Error = ""
	if err := d.wal.Append(j); err != nil {
		j.State = StateRunning
		j.Worker = workerID
		d.mu.Unlock()
		return nil, err
	}
	delete(d.leases, jobID)
	if j.TraceID != "" {
		d.tracer.Instant("job_done", "job", fleetPID, jobsTID,
			float64(now.Sub(d.epoch))/float64(time.Microsecond),
			obs.SpanArgs(map[string]any{"job_id": j.ID, "worker": workerID}, j.TraceID, obs.NewSpanID(), j.SpanID))
	}
	d.metrics.runningJobs.Add(-1)
	d.metrics.completed.With(string(j.Spec.Type)).Inc()
	d.metrics.duration.With(string(j.Spec.Type)).Observe(now.Sub(j.StartedAt).Seconds())
	d.maybeCompactLocked()
	out := j.clone()
	d.mu.Unlock()

	d.publish(out)
	return out, nil
}

// publish forwards a completed train job's checkpoint to the publisher.
// Publish failures are logged, not propagated: the job's artifacts are safe
// in the store and the checkpoint can be re-published by hand.
func (d *Dispatcher) publish(j *Job) {
	if d.cfg.Publisher == nil || j.Spec.Type != JobTrain {
		return
	}
	digest, ok := j.Artifacts[ArtifactCheckpoint]
	if !ok {
		d.logf("fleet: job %s completed without a checkpoint artifact; nothing to publish", j.ID)
		return
	}
	data, err := d.store.Get(digest)
	if err != nil {
		d.logf("fleet: reading checkpoint of %s for publishing: %v", j.ID, err)
		return
	}
	base := j.Spec.Train.Agent.Name() + ".json"
	if err := d.cfg.Publisher.Publish(base, data); err != nil {
		d.logf("fleet: publishing %s from %s: %v", base, j.ID, err)
		return
	}
	d.logf("fleet: published %s (%d bytes) from %s", base, len(data), j.ID)
}

// Fail reports a worker-side job failure; the job is requeued with backoff
// (or terminally failed once the attempt budget is spent).
func (d *Dispatcher) Fail(workerID, jobID, msg string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[jobID]
	if !ok || l.worker != workerID {
		return ErrLeaseLost
	}
	delete(d.leases, jobID)
	d.metrics.runningJobs.Add(-1)
	return d.requeueLocked(d.jobs[jobID], workerID, msg)
}

// expireLocked requeues every job whose lease deadline has passed.
func (d *Dispatcher) expireLocked(now time.Time) {
	for jobID, l := range d.leases {
		if now.After(l.deadline) {
			d.metrics.leaseExpirations.Inc()
			d.expireLeaseLocked(jobID, fmt.Sprintf("lease expired (no heartbeat within %s)", d.cfg.LeaseTTL))
		}
	}
}

// expireLeaseLocked drops the lease and requeues its job.
func (d *Dispatcher) expireLeaseLocked(jobID, reason string) {
	l := d.leases[jobID]
	delete(d.leases, jobID)
	d.metrics.runningJobs.Add(-1)
	if err := d.requeueLocked(d.jobs[jobID], l.worker, reason); err != nil {
		d.logf("fleet: requeueing %s: %v", jobID, err)
	}
}

// allWorkersExcludedLocked reports whether every registered worker is on the
// job's excluded list. When that happens exclusion is ignored at lease time:
// in a single-worker fleet (or once every worker has failed the job once)
// honouring it would strand the job in pending with attempts to spare, never
// leased and never terminally failed.
func (d *Dispatcher) allWorkersExcludedLocked(j *Job) bool {
	for id := range d.workers {
		if !j.excludes(id) {
			return false
		}
	}
	return true
}

// requeueLocked moves a running job back to pending with exponential backoff
// and the failing worker excluded, or to failed once MaxAttempts lease
// grants have all ended badly.
func (d *Dispatcher) requeueLocked(j *Job, worker, reason string) error {
	j.Worker = ""
	j.Error = reason
	if !j.excludes(worker) {
		j.Excluded = append(j.Excluded, worker)
	}
	if j.Attempts >= d.cfg.MaxAttempts {
		j.State = StateFailed
		j.FinishedAt = time.Now()
		d.metrics.failed.With(string(j.Spec.Type)).Inc()
		delete(d.byHash, j.Hash)
		d.logf("fleet: job %s failed terminally after %d attempts: %s", j.ID, j.Attempts, reason)
	} else {
		backoff := d.cfg.RetryBackoff << uint(j.Attempts-1)
		if limit := d.cfg.RetryBackoff << 6; backoff > limit {
			backoff = limit
		}
		j.State = StatePending
		j.NotBefore = time.Now().Add(backoff)
		d.metrics.queueDepth.Add(1)
		d.metrics.retries.Inc()
		d.logf("fleet: job %s requeued (attempt %d/%d, backoff %s, excluding %s): %s",
			j.ID, j.Attempts, d.cfg.MaxAttempts, backoff, worker, reason)
	}
	return d.wal.Append(j)
}

// maybeCompactLocked rewrites the WAL once it holds several times more
// records than live jobs (every job transition appends one record, so a
// churning queue grows the log without bound otherwise).
func (d *Dispatcher) maybeCompactLocked() {
	if d.wal.Records() < d.cfg.CompactMinRecords || d.wal.Records() <= 3*len(d.jobs) {
		return
	}
	live := d.jobsSortedLocked()
	if err := d.wal.Compact(live); err != nil {
		d.logf("fleet: WAL compaction: %v", err)
		return
	}
	d.metrics.walCompactions.Inc()
	d.logf("fleet: WAL compacted to %d records", len(live))
}

func (d *Dispatcher) jobsSortedLocked() []*Job {
	out := make([]*Job, 0, len(d.jobs))
	for _, j := range d.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// Jobs returns a snapshot of every job, in submission order.
func (d *Dispatcher) Jobs() []*Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	jobs := d.jobsSortedLocked()
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.clone()
	}
	return out
}

// Job returns one job by ID.
func (d *Dispatcher) Job(id string) (*Job, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.clone(), nil
}
