package fleet

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"readys/internal/exp"
	"readys/internal/taskgraph"
)

// tinyAgentSpec is the smallest trainable architecture, used throughout the
// fleet tests so train jobs finish in milliseconds.
func tinyAgentSpec() exp.AgentSpec {
	spec := exp.DefaultAgentSpec(taskgraph.Cholesky, 2, 1, 1)
	spec.Window, spec.Layers, spec.Hidden = 1, 1, 8
	return spec
}

// trainJob is a tiny train job spec (3 episodes).
func trainJob(priority int) JobSpec {
	return JobSpec{
		Type:     JobTrain,
		Priority: priority,
		Train:    &TrainSpec{Agent: tinyAgentSpec(), Episodes: 3},
	}
}

// figureJob is the cheapest distinct-hash filler job for queue tests (it is
// never executed there).
func figureJob(name string, priority int) JobSpec {
	return JobSpec{Type: JobFigure, Priority: priority, Figure: &FigureSpec{Name: name}}
}

// newTestDispatcher builds a dispatcher on a temp directory. mutate, if
// non-nil, adjusts the config before construction.
func newTestDispatcher(t *testing.T, mutate func(*Config)) *Dispatcher {
	t.Helper()
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.WALPath = filepath.Join(dir, "queue.wal")
	cfg.ArtifactsDir = filepath.Join(dir, "artifacts")
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestSubmitValidates(t *testing.T) {
	d := newTestDispatcher(t, nil)
	bad := []JobSpec{
		{},               // no payload
		{Type: JobTrain}, // type without payload
		{Type: JobFigure, Figure: &FigureSpec{Name: "figure99"}},                    // unknown figure
		{Type: JobTrain, Train: &TrainSpec{}, Figure: &FigureSpec{Name: "figure7"}}, // two payloads
		{Type: "bake", Figure: &FigureSpec{Name: "figure7"}},                        // unknown type
	}
	for i, spec := range bad {
		if _, _, err := d.submit(spec, "", ""); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

func TestSubmitDedupsBySpecHash(t *testing.T) {
	d := newTestDispatcher(t, nil)
	j1, dup, err := d.submit(trainJob(0), "", "")
	if err != nil || dup {
		t.Fatalf("first submit = (dup=%v, err=%v)", dup, err)
	}
	// Same work at a different priority must dedup onto the existing job.
	j2, dup, err := d.submit(trainJob(99), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !dup || j2.ID != j1.ID {
		t.Fatalf("resubmit returned job %s (dup=%v), want dedup onto %s", j2.ID, dup, j1.ID)
	}
	if got := d.metrics.dedupHits.Value(); got != 1 {
		t.Fatalf("dedup counter = %d, want 1", got)
	}
	// A different spec is a different job.
	j3, dup, err := d.submit(figureJob("figure7", 0), "", "")
	if err != nil || dup {
		t.Fatalf("distinct submit = (dup=%v, err=%v)", dup, err)
	}
	if j3.ID == j1.ID {
		t.Fatal("distinct specs share a job ID")
	}
}

func TestLeaseOrderPriorityThenSubmission(t *testing.T) {
	d := newTestDispatcher(t, nil)
	low, _, _ := d.submit(figureJob("figure3", 0), "", "")
	mid1, _, _ := d.submit(figureJob("figure4", 5), "", "")
	mid2, _, _ := d.submit(figureJob("figure5", 5), "", "")
	high, _, _ := d.submit(figureJob("figure6", 10), "", "")

	w := d.Register("order")
	var got []string
	for {
		j, _, err := d.Lease(w.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			break
		}
		got = append(got, j.ID)
	}
	want := []string{high.ID, mid1.ID, mid2.ID, low.ID}
	if len(got) != len(want) {
		t.Fatalf("leased %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lease order %v, want %v", got, want)
		}
	}
}

func TestLeaseRequiresRegistration(t *testing.T) {
	d := newTestDispatcher(t, nil)
	if _, _, err := d.Lease("w9999-ghost"); err != ErrUnknownWorker {
		t.Fatalf("lease by unregistered worker: %v, want ErrUnknownWorker", err)
	}
}

func TestFailRequeuesWithBackoffThenTerminal(t *testing.T) {
	d := newTestDispatcher(t, func(c *Config) {
		c.MaxAttempts = 2
		c.RetryBackoff = time.Hour // visible, never elapses in-test
	})
	job, _, err := d.submit(figureJob("figure7", 0), "", "")
	if err != nil {
		t.Fatal(err)
	}
	w1 := d.Register("w1")
	w2 := d.Register("w2")

	leased, _, err := d.Lease(w1.ID)
	if err != nil || leased == nil || leased.ID != job.ID {
		t.Fatalf("lease = (%v, %v)", leased, err)
	}
	if err := d.Fail(w1.ID, job.ID, "boom"); err != nil {
		t.Fatal(err)
	}
	j, _ := d.Job(job.ID)
	if j.State != StatePending {
		t.Fatalf("after first failure state = %q, want pending", j.State)
	}
	if !j.excludes(w1.ID) {
		t.Fatalf("failing worker %s not excluded: %v", w1.ID, j.Excluded)
	}
	if time.Until(j.NotBefore) < 30*time.Minute {
		t.Fatalf("backoff NotBefore = %s, want ~1h out", j.NotBefore)
	}
	// The excluded worker never sees the job again; a fresh worker does, but
	// only once the backoff has elapsed.
	if got, _, _ := d.Lease(w1.ID); got != nil {
		t.Fatalf("excluded worker releases %s", got.ID)
	}
	if got, _, _ := d.Lease(w2.ID); got != nil {
		t.Fatalf("backoff not honoured: leased %s", got.ID)
	}

	// Clear the backoff and spend the final attempt: the job fails terminally
	// and the hash index forgets it, so resubmission makes a fresh job.
	d.mu.Lock()
	d.jobs[job.ID].NotBefore = time.Time{}
	d.mu.Unlock()
	if got, _, _ := d.Lease(w2.ID); got == nil || got.ID != job.ID {
		t.Fatalf("second attempt not leased: %v", got)
	}
	if err := d.Fail(w2.ID, job.ID, "boom again"); err != nil {
		t.Fatal(err)
	}
	j, _ = d.Job(job.ID)
	if j.State != StateFailed {
		t.Fatalf("after retry budget spent state = %q, want failed", j.State)
	}
	if got := d.metrics.retries.Value(); got != 1 {
		t.Fatalf("retry counter = %d, want 1 (terminal failure is not a retry)", got)
	}
	fresh, dup, err := d.submit(figureJob("figure7", 0), "", "")
	if err != nil || dup {
		t.Fatalf("resubmit after terminal failure = (dup=%v, err=%v)", dup, err)
	}
	if fresh.ID == job.ID {
		t.Fatal("terminally failed job answered the resubmission")
	}
}

// TestLoneWorkerRetriesAfterTransientFailure pins the single-worker escape
// hatch: exclusion is ignored once every registered worker is on the job's
// excluded list, so a lone worker's transient failure (e.g. a failed artifact
// upload) does not strand the job in pending with attempts to spare.
func TestLoneWorkerRetriesAfterTransientFailure(t *testing.T) {
	d := newTestDispatcher(t, func(c *Config) {
		c.MaxAttempts = 3
		c.RetryBackoff = time.Millisecond
	})
	job, _, err := d.submit(figureJob("figure7", 0), "", "")
	if err != nil {
		t.Fatal(err)
	}
	w := d.Register("loner")
	leased, _, err := d.Lease(w.ID)
	if err != nil || leased == nil {
		t.Fatalf("lease = (%v, %v)", leased, err)
	}
	if err := d.Fail(w.ID, job.ID, "transient upload failure"); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.jobs[job.ID].NotBefore = time.Time{} // skip the backoff wait
	d.mu.Unlock()

	retried, _, err := d.Lease(w.ID)
	if err != nil {
		t.Fatal(err)
	}
	if retried == nil || retried.ID != job.ID {
		t.Fatalf("lone worker not re-leased its own failed job: %v", retried)
	}
	digest, err := d.store.Put([]byte("rows\n"))
	if err != nil {
		t.Fatal(err)
	}
	done, err := d.Complete(w.ID, job.ID, map[string]string{ArtifactResult: digest}, nil)
	if err != nil || done.State != StateDone {
		t.Fatalf("retry completion = (%v, %v)", done, err)
	}
	// With a second worker registered, exclusion applies again.
	job2, _, _ := d.submit(figureJob("figure3", 0), "", "")
	w2 := d.Register("second")
	if leased, _, _ = d.Lease(w.ID); leased == nil || leased.ID != job2.ID {
		t.Fatalf("lease = %v, want %s", leased, job2.ID)
	}
	if err := d.Fail(w.ID, job2.ID, "boom"); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.jobs[job2.ID].NotBefore = time.Time{}
	d.mu.Unlock()
	if got, _, _ := d.Lease(w.ID); got != nil {
		t.Fatalf("excluded worker re-leased %s despite an eligible survivor", got.ID)
	}
	if got, _, _ := d.Lease(w2.ID); got == nil || got.ID != job2.ID {
		t.Fatalf("survivor not leased the job: %v", got)
	}
}

// TestCompleteMissingArtifactIsClientError pins the sentinel: citing a digest
// that was never uploaded refuses the completion with ErrArtifactMissing and
// leaves the lease (and job state) intact so the worker can upload and retry.
func TestCompleteMissingArtifactIsClientError(t *testing.T) {
	d := newTestDispatcher(t, nil)
	job, _, _ := d.submit(figureJob("figure7", 0), "", "")
	w := d.Register("uploader")
	if leased, _, _ := d.Lease(w.ID); leased == nil {
		t.Fatal("lease failed")
	}
	bogus := map[string]string{ArtifactResult: "not-a-digest"}
	if _, err := d.Complete(w.ID, job.ID, bogus, nil); !errors.Is(err, ErrArtifactMissing) {
		t.Fatalf("complete with bogus digest: %v, want ErrArtifactMissing", err)
	}
	j, _ := d.Job(job.ID)
	if j.State != StateRunning {
		t.Fatalf("job state after refused completion = %q, want running", j.State)
	}
	digest, err := d.store.Put([]byte("rows\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Complete(w.ID, job.ID, map[string]string{ArtifactResult: digest}, nil); err != nil {
		t.Fatalf("retry after upload: %v", err)
	}
}

func TestLeaseExpiryRequeues(t *testing.T) {
	d := newTestDispatcher(t, func(c *Config) {
		c.LeaseTTL = 30 * time.Millisecond
		c.SweepInterval = 5 * time.Millisecond
		c.RetryBackoff = time.Millisecond
	})
	job, _, err := d.submit(figureJob("figure7", 0), "", "")
	if err != nil {
		t.Fatal(err)
	}
	w := d.Register("mortal")
	if leased, _, _ := d.Lease(w.ID); leased == nil {
		t.Fatal("lease failed")
	}
	// No heartbeat: the sweeper must expire the lease and requeue.
	deadline := time.Now().Add(2 * time.Second)
	for {
		j, _ := d.Job(job.ID)
		if j.State == StatePending {
			if !j.excludes(w.ID) {
				t.Fatalf("expired worker not excluded: %v", j.Excluded)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired; job state %q", j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := d.metrics.leaseExpirations.Value(); got == 0 {
		t.Fatal("lease expiration not counted")
	}
	// The expired worker's heartbeat and completion must be rejected.
	if err := d.Heartbeat(w.ID, job.ID, nil); err != ErrLeaseLost {
		t.Fatalf("zombie heartbeat: %v, want ErrLeaseLost", err)
	}
	if _, err := d.Complete(w.ID, job.ID, nil, nil); err != ErrLeaseLost {
		t.Fatalf("zombie completion: %v, want ErrLeaseLost", err)
	}
}

func TestHeartbeatExtendsLeaseAndRecordsProgress(t *testing.T) {
	d := newTestDispatcher(t, func(c *Config) {
		c.LeaseTTL = 60 * time.Millisecond
		c.SweepInterval = 10 * time.Millisecond
	})
	job, _, _ := d.submit(figureJob("figure7", 0), "", "")
	w := d.Register("beater")
	if leased, _, _ := d.Lease(w.ID); leased == nil {
		t.Fatal("lease failed")
	}
	// Heartbeat well past the original TTL: the lease must stay alive.
	for i := 0; i < 10; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := d.Heartbeat(w.ID, job.ID, &Progress{Episode: i + 1, Episodes: 10}); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	j, _ := d.Job(job.ID)
	if j.State != StateRunning {
		t.Fatalf("state = %q after heartbeats, want running", j.State)
	}
	if j.Progress == nil || j.Progress.Episode != 10 {
		t.Fatalf("progress not recorded: %+v", j.Progress)
	}
}

func TestCompleteVerifiesArtifactsExist(t *testing.T) {
	d := newTestDispatcher(t, nil)
	job, _, _ := d.submit(figureJob("figure7", 0), "", "")
	w := d.Register("uploader")
	if leased, _, _ := d.Lease(w.ID); leased == nil {
		t.Fatal("lease failed")
	}
	missing := map[string]string{ArtifactResult: exp.HashBytes([]byte("never uploaded"))}
	if _, err := d.Complete(w.ID, job.ID, missing, nil); err == nil {
		t.Fatal("completion with an unuploaded artifact accepted")
	}
	digest, err := d.store.Put([]byte("the result"))
	if err != nil {
		t.Fatal(err)
	}
	done, err := d.Complete(w.ID, job.ID, map[string]string{ArtifactResult: digest}, json.RawMessage(`{"rows":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Artifacts[ArtifactResult] != digest {
		t.Fatalf("completed job = %+v", done)
	}
}

func TestDeregisterRequeuesHeldLease(t *testing.T) {
	d := newTestDispatcher(t, func(c *Config) { c.RetryBackoff = time.Millisecond })
	job, _, _ := d.submit(figureJob("figure7", 0), "", "")
	w := d.Register("quitter")
	if leased, _, _ := d.Lease(w.ID); leased == nil {
		t.Fatal("lease failed")
	}
	if err := d.Deregister(w.ID); err != nil {
		t.Fatal(err)
	}
	j, _ := d.Job(job.ID)
	if j.State != StatePending {
		t.Fatalf("state after deregister = %q, want pending", j.State)
	}
}

// TestDispatcherCrashReplay restarts the dispatcher on the same WAL mid-queue
// and checks that no job is lost, duplicated or resurrected: pending stays
// pending, running is requeued (its lease died with the process), done stays
// done with its artifacts, and the dedup index still answers resubmissions.
func TestDispatcherCrashReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.WALPath = filepath.Join(dir, "queue.wal")
	cfg.ArtifactsDir = filepath.Join(dir, "artifacts")
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pending, _, _ := d.submit(figureJob("figure3", 1), "", "")
	running, _, _ := d.submit(figureJob("figure4", 2), "", "")
	done, _, _ := d.submit(figureJob("figure5", 3), "", "")
	w := d.Register("doomed")
	// Drain by priority: figure5 first (completed), then figure4 (left
	// running across the crash).
	first, _, _ := d.Lease(w.ID)
	if first == nil || first.ID != done.ID {
		t.Fatalf("first lease = %v, want %s", first, done.ID)
	}
	digest, err := d.store.Put([]byte("figure5 rows"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Complete(w.ID, done.ID, map[string]string{ArtifactResult: digest}, nil); err != nil {
		t.Fatal(err)
	}
	second, _, _ := d.Lease(w.ID)
	if second == nil || second.ID != running.ID {
		t.Fatalf("second lease = %v, want %s", second, running.ID)
	}
	if err := d.Close(); err != nil { // crash: running job never reported back
		t.Fatal(err)
	}

	d2, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	jobs := d2.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	byID := map[string]*Job{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	if j := byID[pending.ID]; j == nil || j.State != StatePending {
		t.Fatalf("pending job replayed as %+v", byID[pending.ID])
	}
	if j := byID[running.ID]; j == nil || j.State != StatePending || j.Worker != "" {
		t.Fatalf("running job not requeued on replay: %+v", byID[running.ID])
	} else if j.Attempts != 1 {
		t.Fatalf("requeued job attempts = %d, want the granted attempt still charged", j.Attempts)
	}
	if j := byID[done.ID]; j == nil || j.State != StateDone || j.Artifacts[ArtifactResult] != digest {
		t.Fatalf("done job replayed as %+v", byID[done.ID])
	}
	if data, err := d2.store.Get(digest); err != nil || string(data) != "figure5 rows" {
		t.Fatalf("artifact lost across restart: (%q, %v)", data, err)
	}
	// Dedup survives the restart: resubmitting completed work answers with
	// the done job; the new ID sequence does not collide with replayed IDs.
	again, dup, err := d2.submit(figureJob("figure5", 3), "", "")
	if err != nil || !dup || again.ID != done.ID {
		t.Fatalf("post-restart dedup = (%v, dup=%v, err=%v)", again, dup, err)
	}
	freshSpec := figureJob("figure6", 0)
	fresh, dup, err := d2.submit(freshSpec, "", "")
	if err != nil || dup {
		t.Fatal("fresh submission after restart failed")
	}
	if _, clash := byID[fresh.ID]; clash {
		t.Fatalf("new job reused replayed ID %s", fresh.ID)
	}

	// The requeued job is leasable again and completable by a new worker.
	w2 := d2.Register("survivor")
	got, _, err := d2.Lease(w2.ID)
	if err != nil || got == nil || got.ID != running.ID {
		t.Fatalf("survivor lease = (%v, %v), want requeued %s", got, err, running.ID)
	}
}

func TestWALCompactionTriggersOnChurn(t *testing.T) {
	d := newTestDispatcher(t, func(c *Config) { c.CompactMinRecords = 8 })
	w := d.Register("churner")
	// One job cycled through fail→resubmit repeatedly appends far more
	// records than live jobs, crossing the compaction threshold.
	for i := 0; i < 10; i++ {
		job, _, err := d.submit(figureJob("figure7", 0), "", "")
		if err != nil {
			t.Fatal(err)
		}
		if job.State == StateFailed {
			t.Fatal("submitted job already failed")
		}
		d.mu.Lock()
		d.jobs[job.ID].NotBefore = time.Time{}
		d.mu.Unlock()
		leased, _, err := d.Lease(w.ID)
		if err != nil || leased == nil {
			t.Fatalf("lease %d = (%v, %v)", i, leased, err)
		}
		// Exhaust the attempt budget so the hash index frees the spec.
		for leased != nil {
			if err := d.Fail(w.ID, leased.ID, "churn"); err != nil {
				t.Fatal(err)
			}
			d.mu.Lock()
			j := d.jobs[leased.ID]
			j.NotBefore = time.Time{}
			j.Excluded = nil // let the same worker retry in this synthetic churn
			failed := j.State == StateFailed
			d.mu.Unlock()
			if failed {
				break
			}
			leased, _, err = d.Lease(w.ID)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := d.metrics.walCompactions.Value(); got == 0 {
		t.Fatalf("no WAL compaction after churn (%d records, %d jobs)", d.wal.Records(), len(d.jobs))
	}
	// Compaction must preserve the live set.
	d.mu.Lock()
	live := len(d.jobs)
	d.mu.Unlock()
	if live != 10 {
		t.Fatalf("live jobs = %d, want 10", live)
	}
}

func TestPaperGridSubmissionIsIdempotent(t *testing.T) {
	d := newTestDispatcher(t, nil)
	grid := PaperGrid()
	for _, spec := range grid {
		if _, dup, err := d.submit(spec, "", ""); err != nil || dup {
			t.Fatalf("first grid pass: dup=%v err=%v for %s job", dup, err, spec.Type)
		}
	}
	for _, spec := range grid {
		if _, dup, err := d.submit(spec, "", ""); err != nil || !dup {
			t.Fatalf("second grid pass not deduplicated (dup=%v, err=%v)", dup, err)
		}
	}
	if got := int(d.metrics.dedupHits.Value()); got != len(grid) {
		t.Fatalf("dedup hits = %d, want %d", got, len(grid))
	}
}
