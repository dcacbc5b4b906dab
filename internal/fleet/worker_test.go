package fleet

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"readys/internal/exp"
)

// startWorker launches a worker against the dispatcher URL and returns it
// with the channel Run's error arrives on.
func startWorker(t *testing.T, ctx context.Context, cfg WorkerConfig) (*Worker, chan error) {
	t.Helper()
	return startWorkerWith(t, ctx, cfg, nil)
}

// startWorkerWith is startWorker with a configure step that runs before the
// worker goroutine launches (e.g. installing testHookJobStart race-free).
func startWorkerWith(t *testing.T, ctx context.Context, cfg WorkerConfig, configure func(*Worker)) (*Worker, chan error) {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	if cfg.ModelsDir == "" {
		cfg.ModelsDir = filepath.Join(t.TempDir(), "models")
	}
	w := NewWorker(cfg)
	if configure != nil {
		configure(w)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return w, done
}

// waitForState polls a job until it reaches want (or the deadline passes).
func waitForState(t *testing.T, d *Dispatcher, jobID string, want JobState, timeout time.Duration) *Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, err := d.Job(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if j.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed: %s", jobID, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (want %q)", jobID, j.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerGracefulShutdown cancels the worker's context the moment it
// starts a job (the in-process equivalent of SIGTERM mid-job): the in-flight
// training must run to completion, its artifacts uploaded and the job
// completed, and only then does the worker deregister.
func TestWorkerGracefulShutdown(t *testing.T) {
	d := newTestDispatcher(t, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	job, _, err := d.Submit(trainJob(0))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(WorkerConfig{
		Dispatcher:   srv.URL,
		Name:         "drainer",
		PollInterval: 10 * time.Millisecond,
		ModelsDir:    filepath.Join(t.TempDir(), "models"),
	})
	w.testHookJobStart = func(*Job) { cancel() } // SIGTERM arrives as the job starts
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not drain")
	}
	j, err := d.Job(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone {
		t.Fatalf("in-flight job abandoned on shutdown: state %q (%s)", j.State, j.Error)
	}
	if j.Artifacts[ArtifactCheckpoint] == "" || j.Artifacts[ArtifactHistory] == "" {
		t.Fatalf("drained job missing artifacts: %v", j.Artifacts)
	}
	if n := d.metrics.workers.Value(); n != 0 {
		t.Fatalf("worker did not deregister: %d registered", n)
	}
}

// TestWorkerRunsEvalJob executes an eval sweep against a pre-trained
// checkpoint in the worker's model cache.
func TestWorkerRunsEvalJob(t *testing.T) {
	d := newTestDispatcher(t, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	modelsDir := filepath.Join(t.TempDir(), "models")
	agent := tinyAgentSpec()
	if _, _, err := exp.TrainAgentWith(agent, modelsDir, exp.TrainOptions{Episodes: 3}); err != nil {
		t.Fatal(err)
	}
	evalSpec := exp.EvalSpec{
		Agent: agent,
		Kind:  agent.Kind, T: agent.T, NumCPU: agent.NumCPU, NumGPU: agent.NumGPU,
		Sigmas: []float64{0, 0.2},
		Runs:   2,
		Seed:   7,
	}
	job, _, err := d.Submit(JobSpec{Type: JobEval, Eval: &evalSpec})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, done := startWorker(t, ctx, WorkerConfig{
		Dispatcher: srv.URL,
		Name:       "evaluator",
		ModelsDir:  modelsDir, // checkpoint pre-seeded: LoadOrTrain must hit it
	})

	finished := waitForState(t, d, job.ID, StateDone, 60*time.Second)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker shutdown: %v", err)
	}

	data, err := d.Store().Get(finished.Artifacts[ArtifactResult])
	if err != nil {
		t.Fatal(err)
	}
	var points []exp.ComparisonPoint
	if err := json.Unmarshal(data, &points); err != nil {
		t.Fatalf("result artifact is not a comparison table: %v", err)
	}
	if len(points) != len(evalSpec.Sigmas) {
		t.Fatalf("eval produced %d points, want one per sigma (%d)", len(points), len(evalSpec.Sigmas))
	}
}

// TestWorkerReportsJobFailure checks a worker-side error surfaces as a
// dispatcher-side requeue (not a hang or a silent drop).
func TestWorkerReportsJobFailure(t *testing.T) {
	d := newTestDispatcher(t, func(c *Config) {
		c.MaxAttempts = 1 // fail terminally on the first error
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// A corrupt checkpoint in the worker's model cache makes the eval's
	// LoadOrTrain fail fast (the file exists, so no training fallback).
	agent := tinyAgentSpec()
	modelsDir := filepath.Join(t.TempDir(), "models")
	if err := os.MkdirAll(modelsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(agent.ModelPath(modelsDir), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	evalSpec := exp.EvalSpec{
		Agent: agent,
		Kind:  agent.Kind, T: 2, NumCPU: 1, NumGPU: 1,
		Sigmas: []float64{0},
		Runs:   1,
		Seed:   7,
	}
	job, _, err := d.Submit(JobSpec{Type: JobEval, Eval: &evalSpec})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, done := startWorker(t, ctx, WorkerConfig{
		Dispatcher: srv.URL,
		Name:       "failer",
		ModelsDir:  modelsDir,
	})

	finished := waitForState(t, d, job.ID, StateFailed, 60*time.Second)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker shutdown: %v", err)
	}
	if finished.Error == "" {
		t.Fatal("failed job carries no error message")
	}
	if got := d.Metrics().failed.With(string(JobEval)).Value(); got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
}
