package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"readys/internal/exp"
	"readys/internal/obs"
	"readys/internal/rl"
)

// WorkerConfig tunes one worker daemon.
type WorkerConfig struct {
	// Dispatcher is the dispatcher's base URL.
	Dispatcher string
	// Name labels the worker in the dispatcher's listing (the assigned
	// worker ID embeds it).
	Name string
	// PollInterval is the idle wait between lease attempts.
	PollInterval time.Duration
	// ModelsDir is the worker's local checkpoint cache: eval and figure jobs
	// load (or train on demand) their agents here, and completed train jobs
	// leave their checkpoint behind so a later eval on the same worker hits
	// the cache via exp.LoadOrTrain.
	ModelsDir string
	// RolloutWorkers is passed through to training (0 = GOMAXPROCS);
	// training results are bit-identical at any value.
	RolloutWorkers int
	// Logger receives worker diagnostics; nil disables logging.
	Logger *log.Logger
}

// Worker pulls jobs from a dispatcher under a heartbeated lease, executes
// them, uploads artifacts and reports completion. One worker runs one job at
// a time (training saturates the cores on its own).
// workerPID is the pid under which a worker records trace events (its own
// process namespace; obs.MergeTraces remaps pids when joining exports).
const workerPID = 1

type Worker struct {
	cfg    WorkerConfig
	client *Client

	id  string
	ttl time.Duration

	// epoch anchors trace timestamps; tracer records per-job execution spans
	// into a bounded ring; jobSeq hands out trace lanes (one per leased job).
	epoch  time.Time
	tracer *obs.Tracer
	jobSeq atomic.Int64

	// progress is the latest episode statistic, piggy-backed on heartbeats.
	progress atomic.Pointer[Progress]
	// abandoned is set by the heartbeater when the dispatcher reports the
	// lease lost; the in-flight result is then discarded.
	abandoned atomic.Bool

	// killed simulates abrupt process death (tests): heartbeats stop, the
	// in-flight result is never reported, the loop exits without
	// deregistering.
	killed   chan struct{}
	killOnce sync.Once

	// testHookJobStart, when set, observes every lease grant before
	// execution begins (test instrumentation).
	testHookJobStart func(*Job)
}

// NewWorker builds a worker for the dispatcher at cfg.Dispatcher.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.Name = host
	}
	if cfg.ModelsDir == "" {
		cfg.ModelsDir = "fleet-models"
	}
	w := &Worker{
		cfg:    cfg,
		client: NewClient(cfg.Dispatcher),
		epoch:  time.Now(),
		tracer: obs.NewTracer(0),
		killed: make(chan struct{}),
	}
	w.tracer.NameProcess(workerPID, "readys-worker:"+cfg.Name)
	return w
}

// WriteTrace exports the worker's execution spans as Chrome trace-event JSON.
// Merged with the dispatcher's /debug/trace export via obs.MergeTraces, the
// two processes' spans stitch into one timeline through the job's trace IDs.
func (w *Worker) WriteTrace(out io.Writer) error { return w.tracer.WriteChromeTrace(out) }

// span records a completed slice on the given job lane.
func (w *Worker) span(name, cat string, tid int64, start time.Time, args map[string]any) {
	w.tracer.Complete(name, cat, workerPID, tid,
		float64(start.Sub(w.epoch))/float64(time.Microsecond),
		float64(time.Since(start))/float64(time.Microsecond), args)
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logger != nil {
		w.cfg.Logger.Printf(format, args...)
	}
}

// Run registers the worker and processes jobs until ctx is cancelled, then
// shuts down gracefully: the in-flight job (if any) runs to completion, its
// artifacts are uploaded, the lease is released by completing the job, and
// the worker deregisters. Mirrors readys-serve's drain-on-SIGTERM.
func (w *Worker) Run(ctx context.Context) error {
	id, ttl, err := w.client.Register(w.cfg.Name)
	if err != nil {
		return fmt.Errorf("fleet: registering with %s: %w", w.cfg.Dispatcher, err)
	}
	w.id, w.ttl = id, ttl
	w.logf("fleet: worker %s registered (lease TTL %s)", id, ttl)

	for {
		select {
		case <-w.killed:
			return nil
		case <-ctx.Done():
			return w.deregister()
		default:
		}
		job, ttl, err := w.client.Lease(w.id)
		if err != nil {
			w.logf("fleet: lease: %v", err)
			if !w.sleep(ctx) {
				return w.deregister()
			}
			continue
		}
		if job == nil {
			if !w.sleep(ctx) {
				return w.deregister()
			}
			continue
		}
		if ttl > 0 {
			w.ttl = ttl
		}
		w.execute(job)
		// A cancelled context is only honoured between jobs: the in-flight
		// job above already ran to completion (graceful drain).
	}
}

// deregister releases the worker's registration on shutdown.
func (w *Worker) deregister() error {
	if err := w.client.Deregister(w.id); err != nil {
		return fmt.Errorf("fleet: deregistering %s: %w", w.id, err)
	}
	w.logf("fleet: worker %s deregistered", w.id)
	return nil
}

// sleep waits one poll interval; false means ctx was cancelled.
func (w *Worker) sleep(ctx context.Context) bool {
	t := time.NewTimer(w.cfg.PollInterval)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-w.killed:
		return false
	case <-t.C:
		return true
	}
}

// execute runs one leased job under a heartbeater and reports the outcome.
func (w *Worker) execute(job *Job) {
	w.logf("fleet: worker %s running %s (%s, attempt %d)", w.id, job.ID, job.Spec.Type, job.Attempts)
	if w.testHookJobStart != nil {
		w.testHookJobStart(job)
	}
	w.abandoned.Store(false)
	w.progress.Store(nil)

	// Join the job's distributed trace: the execute span parents to the
	// dispatcher-side job span, and the client carries the execute span's
	// context so every heartbeat/upload/completion request the job makes is
	// recorded server-side as its child.
	traceID := job.TraceID
	if traceID == "" {
		traceID = obs.NewTraceID() // pre-tracing dispatcher; keep spans linkable
	}
	execSC := obs.SpanContext{TraceID: traceID, SpanID: obs.NewSpanID()}
	w.client.SetTraceContext(execSC)
	defer w.client.ClearTraceContext()
	tid := w.jobSeq.Add(1)
	w.tracer.NameThread(workerPID, tid, job.ID)
	execStart := time.Now()
	defer func() {
		w.span("execute", "job", tid, execStart,
			obs.SpanArgs(map[string]any{"job_id": job.ID, "type": string(job.Spec.Type), "attempt": job.Attempts},
				execSC.TraceID, execSC.SpanID, job.SpanID))
	}()

	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		interval := w.ttl / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-w.killed:
				return
			case <-t.C:
				err := w.client.Heartbeat(w.id, job.ID, w.progress.Load())
				if errors.Is(err, ErrLeaseLost) {
					w.abandoned.Store(true)
					return
				}
				if err != nil {
					w.logf("fleet: heartbeat for %s: %v", job.ID, err)
				}
			}
		}
	}()

	runStart := time.Now()
	artifacts, result, runErr := w.run(job)
	w.span(string(job.Spec.Type), "work", tid, runStart,
		obs.SpanArgs(map[string]any{"ok": runErr == nil}, execSC.TraceID, obs.NewSpanID(), execSC.SpanID))
	close(stop)
	hb.Wait()

	select {
	case <-w.killed:
		// Simulated process death: never report, the lease will expire.
		return
	default:
	}
	if w.abandoned.Load() {
		w.logf("fleet: worker %s lost the lease on %s; discarding result", w.id, job.ID)
		return
	}
	if runErr != nil {
		w.logf("fleet: worker %s failed %s: %v", w.id, job.ID, runErr)
		if err := w.client.Fail(w.id, job.ID, runErr.Error()); err != nil && !errors.Is(err, ErrLeaseLost) {
			w.logf("fleet: reporting failure of %s: %v", job.ID, err)
		}
		return
	}

	digests := make(map[string]string, len(artifacts))
	for name, data := range artifacts {
		upStart := time.Now()
		digest, err := w.client.PutArtifact(data)
		w.span("upload", "artifact", tid, upStart,
			obs.SpanArgs(map[string]any{"artifact": name, "bytes": len(data)},
				execSC.TraceID, obs.NewSpanID(), execSC.SpanID))
		if err != nil {
			w.logf("fleet: uploading %s of %s: %v", name, job.ID, err)
			if ferr := w.client.Fail(w.id, job.ID, fmt.Sprintf("artifact upload: %v", err)); ferr != nil && !errors.Is(ferr, ErrLeaseLost) {
				w.logf("fleet: reporting upload failure of %s: %v", job.ID, ferr)
			}
			return
		}
		digests[name] = digest
	}
	if err := w.client.Complete(w.id, job.ID, digests, result); err != nil {
		if errors.Is(err, ErrLeaseLost) {
			w.logf("fleet: worker %s completed %s after losing the lease; result discarded", w.id, job.ID)
		} else {
			w.logf("fleet: completing %s: %v", job.ID, err)
		}
		return
	}
	w.logf("fleet: worker %s completed %s", w.id, job.ID)
}

// run dispatches on the job type and returns named artifact blobs plus a
// small JSON result summary.
func (w *Worker) run(job *Job) (map[string][]byte, json.RawMessage, error) {
	switch job.Spec.Type {
	case JobTrain:
		return w.runTrain(job.Spec.Train)
	case JobEval:
		return w.runEval(job.Spec.Eval)
	case JobFigure:
		return w.runFigure(job.Spec.Figure)
	default:
		return nil, nil, fmt.Errorf("fleet: worker cannot run job type %q", job.Spec.Type)
	}
}

// runTrain executes one training job exactly as a local readys-train run
// would: exp.TrainAgentWith with the spec's seed, a JSONL telemetry sink for
// the per-episode history, and the checkpoint written by the trainer itself.
// Artifacts are therefore bit-identical to the local run's outputs.
func (w *Worker) runTrain(spec *TrainSpec) (map[string][]byte, json.RawMessage, error) {
	scratch, err := os.MkdirTemp("", "readys-fleet-train-*")
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: creating scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)

	episodes := spec.EpisodeBudget()
	historyPath := scratch + "/history.jsonl"
	sink, err := obs.CreateJSONL(historyPath)
	if err != nil {
		return nil, nil, err
	}
	opt := exp.TrainOptions{
		Episodes:  episodes,
		Workers:   w.cfg.RolloutWorkers,
		Telemetry: sink,
		Progress: func(st rl.EpisodeStats) {
			w.progress.Store(&Progress{
				Episode:  st.Episode,
				Episodes: episodes,
				Reward:   st.Reward,
				Makespan: st.Makespan,
			})
		},
	}
	_, hist, err := exp.TrainAgentWith(spec.Agent, scratch, opt)
	if cerr := sink.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}

	checkpoint, err := os.ReadFile(spec.Agent.ModelPath(scratch))
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: reading trained checkpoint: %w", err)
	}
	history, err := os.ReadFile(historyPath)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: reading training history: %w", err)
	}
	// Leave a copy in the local model cache so later eval jobs on this
	// worker hit exp.LoadOrTrain instead of retraining.
	if w.cfg.ModelsDir != "" {
		if err := (DirPublisher{Dir: w.cfg.ModelsDir}).Publish(spec.Agent.Name()+".json", checkpoint); err != nil {
			w.logf("fleet: caching checkpoint locally: %v", err)
		}
	}

	result, err := json.Marshal(map[string]any{
		"episodes":          episodes,
		"final_mean_reward": hist.FinalMeanReward(100),
		"baseline_makespan": hist.BaselineMakespan,
	})
	if err != nil {
		return nil, nil, err
	}
	return map[string][]byte{
		ArtifactCheckpoint: checkpoint,
		ArtifactHistory:    history,
	}, result, nil
}

// runEval executes one evaluation sweep. The agent is loaded from the
// worker's model cache (training it there first if the checkpoint has not
// been published or trained locally yet).
func (w *Worker) runEval(spec *exp.EvalSpec) (map[string][]byte, json.RawMessage, error) {
	points, err := spec.Run(w.cfg.ModelsDir)
	if err != nil {
		return nil, nil, err
	}
	data, err := json.Marshal(points)
	if err != nil {
		return nil, nil, err
	}
	result, err := json.Marshal(map[string]any{"points": len(points)})
	if err != nil {
		return nil, nil, err
	}
	return map[string][]byte{ArtifactResult: data}, result, nil
}

// runFigure regenerates one figure table and uploads it as CSV.
func (w *Worker) runFigure(spec *FigureSpec) (map[string][]byte, json.RawMessage, error) {
	tab, err := exp.FigureByName(spec.Name, w.cfg.ModelsDir)
	if err != nil {
		return nil, nil, err
	}
	result, err := json.Marshal(map[string]any{"rows": len(tab.Rows), "title": tab.Title})
	if err != nil {
		return nil, nil, err
	}
	return map[string][]byte{ArtifactResult: []byte(tab.CSV())}, result, nil
}
