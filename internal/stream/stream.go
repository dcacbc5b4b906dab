package stream

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// Config describes one stream run: the persistent platform, the arrival
// list, and the simulation knobs shared with internal/sim.
type Config struct {
	Platform platform.Platform
	// Arrivals is the job stream, sorted by Run on time (stable).
	Arrivals []Arrival
	// Sigma is the duration noise level.
	Sigma float64
	// Faults, if non-nil, replays mid-stream against the shared platform.
	Faults *sim.FaultPlan
	// Rng drives duration sampling (and nothing else); required.
	Rng *rand.Rand
	// Tracer, if non-nil, records the whole stream (arrivals, every job's
	// slices, fault spans) as one Chrome trace.
	Tracer *obs.Tracer
	// Metrics, if non-nil, receives job-level metrics: readys_stream_*
	// counters, response-time histogram and terminal gauges.
	Metrics *obs.Registry
	// Recorder, if non-nil, is the cluster flight recorder: the run's
	// arrivals, placements, kills, fault transitions and ready-depth samples
	// land in its ring and the Result keeps a reference (Result.Flight) for
	// export. Recording is bit-inert: results are identical with it off.
	Recorder *obs.FlightRecorder
}

// JobResult is the job-level outcome streaming scheduling is judged on.
type JobResult struct {
	Job      int
	Kind     taskgraph.Kind
	Size     int
	Tasks    int
	ArriveAt float64
	DoneAt   float64
	// Response is DoneAt − ArriveAt: waiting and service combined.
	Response float64
	// IsolatedMakespan is the projected makespan of a noise-free HEFT run of
	// this job alone on an empty platform — the classical normaliser.
	IsolatedMakespan float64
	// Slowdown is Response / IsolatedMakespan (≥ 0; values near 1 mean the
	// shared cluster served the job as fast as a dedicated one could).
	Slowdown float64
}

// Result aggregates a stream run.
type Result struct {
	Jobs []JobResult
	// Makespan is the completion time of the last task (after Drain).
	Makespan float64
	// MeanResponse and P99Response summarise job response times in ms
	// (nearest-rank p99).
	MeanResponse float64
	P99Response  float64
	// MeanSlowdown averages per-job slowdowns.
	MeanSlowdown float64
	// Utilization is Σ busy time / (resources × makespan) ∈ [0, 1], busy
	// including killed attempts (the cluster genuinely spent them).
	Utilization float64
	// MeanReadyDepth is the time-averaged ready-queue depth.
	MeanReadyDepth float64
	Kills          int
	Decisions      int
	IdleDecisions  int

	// Sim is the union-schedule result; Validate checks it.
	Sim sim.Result

	// Flight is the run's flight recorder (nil when Config.Recorder was
	// unset): the queryable event window behind post-mortems.
	Flight *obs.FlightRecorder

	graph    *taskgraph.Graph
	timingOf func(task int) platform.Timing
	cfg      Config
}

// Run schedules the arrival stream under one policy on a persistent cluster
// and returns job-level metrics. The policy sees the union of ready tasks
// across all live jobs; fault plans fire mid-stream; everything is
// deterministic in (Config.Rng seed, Arrivals, Faults).
func Run(pol sim.Policy, cfg Config) (*Result, error) {
	if cfg.Rng == nil {
		return nil, fmt.Errorf("stream: Config.Rng is required")
	}
	if len(cfg.Arrivals) == 0 {
		return nil, fmt.Errorf("stream: no arrivals")
	}
	arrivals := append([]Arrival(nil), cfg.Arrivals...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })
	for _, a := range arrivals {
		if err := a.validate(); err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
	}

	cl, err := sim.NewCluster(cfg.Platform, sim.Options{
		Sigma:    cfg.Sigma,
		Rng:      cfg.Rng,
		Faults:   cfg.Faults,
		Tracer:   cfg.Tracer,
		Recorder: cfg.Recorder,
	})
	if err != nil {
		return nil, err
	}

	var (
		jobs      = make([]JobResult, len(arrivals))
		remaining = make([]int, len(arrivals)) // undone tasks per job
		// One template per job shape: a stream draws its jobs from a handful
		// of (family, size) pairs, and a pair's graph, timing table and
		// isolated HEFT makespan are the same at every arrival.
		templates = make(map[jobShape]*jobTemplate)
	)
	var mArrived, mCompleted *obs.Counter
	var mResponse *obs.Histogram
	if cfg.Metrics != nil {
		mArrived = cfg.Metrics.Counter("readys_stream_jobs_arrived_total", "jobs injected into the cluster")
		mCompleted = cfg.Metrics.Counter("readys_stream_jobs_completed_total", "jobs whose last task completed")
		mResponse = cfg.Metrics.Histogram("readys_stream_job_response_ms", "job response time (completion − arrival) in ms",
			[]float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000})
	}
	cl.OnTaskDone(func(task int, at float64) {
		j := cl.State().JobOf(task)
		remaining[j]--
		if remaining[j] == 0 {
			jobs[j].DoneAt = at
			jobs[j].Response = at - jobs[j].ArriveAt
			if jobs[j].IsolatedMakespan > 0 {
				jobs[j].Slowdown = jobs[j].Response / jobs[j].IsolatedMakespan
			}
			if mCompleted != nil {
				mCompleted.Inc()
				mResponse.Observe(jobs[j].Response)
			}
		}
	})

	pol.Reset(cl.State())
	for i, a := range arrivals {
		if err := cl.RunUntil(pol, a.At); err != nil {
			return nil, fmt.Errorf("stream: advancing to arrival %d at %.1f: %w", i, a.At, err)
		}
		tpl := templates[jobShape{a.Kind, a.Size}]
		if tpl == nil {
			tpl = newJobTemplate(a, cfg.Platform)
			templates[jobShape{a.Kind, a.Size}] = tpl
		}
		jobs[i] = JobResult{
			Job: i, Kind: a.Kind, Size: a.Size, Tasks: tpl.graph.NumTasks(), ArriveAt: a.At,
			IsolatedMakespan: tpl.isolated,
		}
		remaining[i] = tpl.graph.NumTasks()
		if _, err := cl.AddJob(i, tpl.graph, tpl.timing); err != nil {
			return nil, err
		}
		if mArrived != nil {
			mArrived.Inc()
		}
	}
	if err := cl.Drain(pol); err != nil {
		return nil, fmt.Errorf("stream: draining after last arrival: %w", err)
	}

	s := cl.State()
	res := &Result{
		Jobs:           jobs,
		Makespan:       cl.Now(),
		MeanReadyDepth: cl.MeanReadyDepth(),
		Sim:            cl.Result(),
		Flight:         cfg.Recorder,
		graph:          s.Graph,
		timingOf:       s.TaskTiming,
		cfg:            cfg,
	}
	res.Kills = len(res.Sim.Kills)
	res.Decisions = res.Sim.Decisions
	res.IdleDecisions = res.Sim.IdleDecisions

	responses := make([]float64, 0, len(jobs))
	var sumResp, sumSlow float64
	for _, j := range jobs {
		responses = append(responses, j.Response)
		sumResp += j.Response
		sumSlow += j.Slowdown
	}
	sort.Float64s(responses)
	res.MeanResponse = sumResp / float64(len(jobs))
	res.P99Response = percentile(responses, 0.99)
	res.MeanSlowdown = sumSlow / float64(len(jobs))

	if res.Makespan > 0 {
		var busy float64
		for _, b := range cl.BusyTime() {
			busy += b
		}
		res.Utilization = busy / (float64(cfg.Platform.Size()) * res.Makespan)
	}
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc("readys_stream_utilization", "cluster utilization of the finished run",
			func() float64 { return res.Utilization })
		cfg.Metrics.GaugeFunc("readys_stream_mean_ready_depth", "time-averaged ready-queue depth",
			func() float64 { return res.MeanReadyDepth })
		cfg.Metrics.Counter("readys_stream_tasks_completed_total", "tasks retired across all jobs").Add(uint64(s.NumDone))
		cfg.Metrics.Counter("readys_stream_kills_total", "task attempts killed by fault events").Add(uint64(res.Kills))
	}
	return res, nil
}

// jobShape is what a job's DAG is a pure function of.
type jobShape struct {
	kind taskgraph.Kind
	size int
}

// jobTemplate is a job shape built once for a run: the frozen graph every
// arrival of the shape appends to the cluster, its family's timing table, and
// the noise-free HEFT makespan of the job alone on the run's platform.
type jobTemplate struct {
	graph    *taskgraph.Graph
	timing   platform.Timing
	isolated float64
}

func newJobTemplate(a Arrival, plat platform.Platform) *jobTemplate {
	t := &jobTemplate{graph: taskgraph.NewFrozenByKind(a.Kind, a.Size), timing: platform.TimingFor(a.Kind)}
	t.isolated = sched.HEFT(t.graph, plat, t.timing).Makespan
	return t
}

// Validate checks the union schedule with the strict validator: per-task
// durations against each job's own timing table, fault windows, kill
// consistency. A passing stream run is a feasible multi-job schedule.
func (r *Result) Validate() error {
	return sim.ValidateResultStrict(r.graph, r.Sim, sim.CheckOptions{
		Platform: r.cfg.Platform,
		Sigma:    r.cfg.Sigma,
		Faults:   r.cfg.Faults,
		TimingOf: r.timingOf,
	})
}

// percentile returns the nearest-rank percentile of ascending xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
