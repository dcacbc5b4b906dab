package fleet

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"readys/internal/exp"
	"readys/internal/obs"
)

// failoverConfig shrinks every fault-tolerance timescale so a kill → expiry →
// requeue → survivor cycle fits in well under a second of waiting.
func failoverConfig(c *Config) {
	c.LeaseTTL = 200 * time.Millisecond
	c.SweepInterval = 20 * time.Millisecond
	c.RetryBackoff = time.Millisecond
	c.MaxAttempts = 3
}

// TestWorkerKillFailover kills a worker mid-job (heartbeats stop, the result
// is never reported — the in-process equivalent of kill -9) and checks the
// dispatcher notices via lease expiry, requeues with the dead worker
// excluded, and a survivor completes the job.
// kill simulates abrupt process death: heartbeats stop immediately, the
// in-flight job's result is discarded, and Run returns without completing or
// deregistering. The dispatcher notices via lease expiry.
func kill(w *Worker) { w.killOnce.Do(func() { close(w.killed) }) }

func TestWorkerKillFailover(t *testing.T) {
	d := newTestDispatcher(t, failoverConfig)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	job, _, err := d.submit(trainJob(0), "", "")
	if err != nil {
		t.Fatal(err)
	}

	// Victim first, alone, so it is guaranteed to win the first lease.
	victimCtx, victimCancel := context.WithCancel(context.Background())
	defer victimCancel()
	victim, victimDone := startWorkerWith(t, victimCtx, WorkerConfig{
		Dispatcher: srv.URL,
		Name:       "victim",
	}, func(w *Worker) {
		w.testHookJobStart = func(*Job) { kill(w) }
	})

	select {
	case err := <-victimDone:
		if err != nil {
			t.Fatalf("killed worker returned error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("killed worker never exited")
	}
	victimID := victim.id
	if victimID == "" {
		t.Fatal("victim never registered")
	}

	// The survivor arrives after the kill and completes the requeued job.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	survivor, survivorDone := startWorker(t, ctx, WorkerConfig{
		Dispatcher: srv.URL,
		Name:       "survivor",
	})
	finished := waitForState(t, d, job.ID, StateDone, 60*time.Second)
	cancel()
	if err := <-survivorDone; err != nil {
		t.Fatalf("survivor shutdown: %v", err)
	}

	if finished.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (victim + survivor)", finished.Attempts)
	}
	if !finished.excludes(victimID) {
		t.Fatalf("victim %s not excluded after lease expiry: %v", victimID, finished.Excluded)
	}
	if finished.Worker != "" {
		t.Fatalf("done job still assigned to %s", finished.Worker)
	}
	if finished.Artifacts[ArtifactCheckpoint] == "" || finished.Artifacts[ArtifactHistory] == "" {
		t.Fatalf("completed job missing artifacts: %v", finished.Artifacts)
	}
	if got := d.metrics.leaseExpirations.Value(); got == 0 {
		t.Fatal("lease expiration not counted")
	}
	if got := d.metrics.retries.Value(); got == 0 {
		t.Fatal("retry not counted")
	}
	_ = survivor
}

// TestTrainJobDeterministicAcrossFailover is the subsystem's acceptance
// criterion: a train job executed through the dispatcher and workers —
// including one injected worker kill and requeue — produces a checkpoint and
// per-episode history JSONL bit-identical to a local TrainAgentWith run of
// the same spec and seed (the exact code path of readys-train -telemetry).
func TestTrainJobDeterministicAcrossFailover(t *testing.T) {
	spec := tinyAgentSpec()
	const episodes = 5

	// Reference run: plain local training with a JSONL telemetry sink.
	scratch := t.TempDir()
	historyPath := filepath.Join(scratch, "history.jsonl")
	sink, err := obs.CreateJSONL(historyPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := exp.TrainAgentWith(spec, scratch, exp.TrainOptions{
		Episodes:  episodes,
		Telemetry: sink,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	wantCheckpoint, err := os.ReadFile(spec.ModelPath(scratch))
	if err != nil {
		t.Fatal(err)
	}
	wantHistory, err := os.ReadFile(historyPath)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet run with an injected failure: the first worker is killed the
	// moment it starts the job; the lease expires and a second worker
	// re-runs it from scratch.
	published := filepath.Join(t.TempDir(), "published")
	d := newTestDispatcher(t, func(c *Config) {
		failoverConfig(c)
		c.Publisher = DirPublisher{Dir: published}
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	job, _, err := d.submit(JobSpec{Type: JobTrain, Train: &TrainSpec{Agent: spec, Episodes: episodes}}, "", "")
	if err != nil {
		t.Fatal(err)
	}

	victimCtx, victimCancel := context.WithCancel(context.Background())
	defer victimCancel()
	_, victimDone := startWorkerWith(t, victimCtx, WorkerConfig{Dispatcher: srv.URL, Name: "victim"},
		func(w *Worker) {
			w.testHookJobStart = func(*Job) { kill(w) }
		})
	select {
	case <-victimDone:
	case <-time.After(30 * time.Second):
		t.Fatal("killed worker never exited")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, survivorDone := startWorker(t, ctx, WorkerConfig{Dispatcher: srv.URL, Name: "survivor"})
	finished := waitForState(t, d, job.ID, StateDone, 120*time.Second)
	cancel()
	if err := <-survivorDone; err != nil {
		t.Fatalf("survivor shutdown: %v", err)
	}
	if finished.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (the kill must have forced a requeue)", finished.Attempts)
	}

	gotCheckpoint, err := d.store.Get(finished.Artifacts[ArtifactCheckpoint])
	if err != nil {
		t.Fatal(err)
	}
	gotHistory, err := d.store.Get(finished.Artifacts[ArtifactHistory])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCheckpoint, wantCheckpoint) {
		t.Errorf("fleet checkpoint differs from the local run (%d vs %d bytes)",
			len(gotCheckpoint), len(wantCheckpoint))
	}
	if !bytes.Equal(gotHistory, wantHistory) {
		t.Errorf("fleet history differs from the local run (%d vs %d bytes)",
			len(gotHistory), len(wantHistory))
	}

	// The train → serve hook saw the same bytes: the published checkpoint is
	// the artifact, verbatim.
	pub, err := os.ReadFile(filepath.Join(published, spec.Name()+".json"))
	if err != nil {
		t.Fatalf("checkpoint was not published: %v", err)
	}
	if !bytes.Equal(pub, wantCheckpoint) {
		t.Error("published checkpoint differs from the training artifact")
	}
}
