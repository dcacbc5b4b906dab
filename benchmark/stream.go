package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

const (
	streamCheckpoint = "readys_stream_mix_2c2g_w2_l2_h32.json"
	streamRate       = 8 // jobs per simulated second: ≈8 % utilisation, ROADMAP's collapse configuration
	streamSigma      = 0.1
	// streamBudgetSeconds is the share of -seconds one 1000-job stream is
	// booked at: a run measures as many whole streams as fit, an odd number
	// so the median is a measured round.
	streamBudgetSeconds = 4.0
	slowDecideUs        = 1000 // a Decide above this rebuilt its caches after a job arrival
)

type streamSpec struct {
	jobs, warmJobs, rounds int
}

func streamSpecFor(cfg runConfig) streamSpec {
	if cfg.smoke {
		return streamSpec{jobs: 40, warmJobs: 10, rounds: 3}
	}
	rounds := int(float64(cfg.seconds) / streamBudgetSeconds)
	if rounds%2 == 0 {
		rounds--
	}
	if rounds < 3 {
		rounds = 3
	}
	return streamSpec{jobs: 1000, warmJobs: 350, rounds: rounds}
}

func streamProcess(jobs int) stream.PoissonProcess {
	return stream.PoissonProcess{
		Rate: streamRate, Jobs: jobs,
		Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU},
		Sizes: []int{2, 3},
	}
}

func loadStreamAgent(modelsDir string) (*core.Agent, error) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	path := filepath.Join(modelsDir, streamCheckpoint)
	if _, err := agent.LoadCheckpoint(path); err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return agent, nil
}

// streamInput is one round's generated input: the arrivals, how many tasks
// they hold together, and the seed of the duration noise. All come from the
// benchmark seed and the round.
type streamInput struct {
	arrivals  []stream.Arrival
	tasks     int
	noiseSeed int64
}

// streamInputFor generates a round's arrivals. The Poisson process draws each
// job's family and size independently, and what a stream allocates follows the
// order in which sizes arrive (every arrival re-encodes the history so far):
// over ten seeds that alone moved allocation per job by 1.7 %, against a bound
// of 2 %. Here the process keeps its arrival times and the jobs cycle through
// the family × size pairs in a fixed order, so that two seeds ask for the same
// work at different times.
func streamInputFor(seed int64, round, jobs int) (streamInput, error) {
	rng := rand.New(rand.NewSource(mixSeed(seed, int64(round), 1)))
	p := streamProcess(jobs)
	in := streamInput{noiseSeed: mixSeed(seed, int64(round), 2)}
	var err error
	if in.arrivals, err = p.Generate(rng); err != nil {
		return in, err
	}
	for i := range in.arrivals {
		a := &in.arrivals[i]
		a.Kind, a.Size = p.Kinds[i%len(p.Kinds)], p.Sizes[i/len(p.Kinds)%len(p.Sizes)]
		in.tasks += a.Graph().NumTasks()
	}
	return in, nil
}

func (in streamInput) config() stream.Config {
	return stream.Config{
		Platform: platform.New(2, 2),
		Arrivals: in.arrivals,
		Sigma:    streamSigma,
		Rng:      rand.New(rand.NewSource(in.noiseSeed)),
	}
}

// streamRun is one whole stream under pol, checked: every job done, the union
// schedule valid under the strict validator.
func streamRun(pol sim.Policy, in streamInput) (*stream.Result, time.Duration, error) {
	start := time.Now()
	res, err := stream.Run(pol, in.config())
	wall := time.Since(start)
	if err != nil {
		return nil, wall, err
	}
	if err := res.Validate(); err != nil {
		return nil, wall, fmt.Errorf("union schedule invalid: %w", err)
	}
	for _, j := range res.Jobs {
		if !(j.Response > 0) || !(j.IsolatedMakespan > 0) {
			return nil, wall, fmt.Errorf("job %d: response %v, isolated makespan %v", j.Job, j.Response, j.IsolatedMakespan)
		}
	}
	return res, wall, nil
}

// streamQuality is the mean over jobs of isolated noise-free HEFT makespan ÷
// response time: 1 means the shared cluster served the job as fast as HEFT
// plans it alone. stream.Run computes the HEFT side per job, so this costs no
// second 1000-job run.
func streamQuality(res *stream.Result) float64 {
	var sum float64
	for _, j := range res.Jobs {
		sum += j.IsolatedMakespan / j.Response
	}
	return sum / float64(len(res.Jobs))
}

// streamRound reduces one timed stream to a round: the op is the job, a
// Decide call its latency sample.
func streamRound(pol *timedPolicy, wall time.Duration, jobs int) roundStats {
	latMs := make([]float64, len(pol.decideS))
	for i, d := range pol.decideS {
		latMs[i] = float64(d) / float64(time.Millisecond)
	}
	rs := summariseRound(latMs, wall.Seconds(), 99)
	rs.ops = jobs
	return rs
}

func runStream(cfg runConfig) (*outcome, error) {
	spec := streamSpecFor(cfg)
	setups := setupRepetitions
	if cfg.smoke {
		setups = 1
	}
	if cfg.trace {
		setups = 1
	}
	o := newOutcome(cfg)

	// Set-up: cold-load the checkpoint, generate every round's arrivals, run
	// one short validated stream.
	var agent *core.Agent
	var inputs []streamInput
	var setup setupTimer
	for i := 0; i < setups; i++ {
		began := setup.begin()
		var err error
		if agent, err = loadStreamAgent(cfg.modelsDir()); err != nil {
			return nil, err
		}
		inputs = inputs[:0]
		for r := 0; r < spec.rounds; r++ {
			in, err := streamInputFor(cfg.seed, r, spec.jobs)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, in)
		}
		warm, err := streamInputFor(cfg.seed, -1, spec.warmJobs)
		if err != nil {
			return nil, err
		}
		if _, _, err := streamRun(core.NewPolicy(agent), warm); err != nil {
			return nil, fmt.Errorf("warm-up stream: %w", err)
		}
		setup.end(began)
	}

	if cfg.trace {
		return o, traceStream(cfg, spec, agent, inputs[0], o)
	}

	// A round is one whole stream: per-decision cost depends on how much
	// history the cluster holds, so a stream cannot be cut into rounds.
	var rounds []roundStats
	var quality float64
	decisions := 0
	m := startMeter()
	for r, in := range inputs {
		cfg.host.sample()
		pol := &timedPolicy{inner: core.NewPolicy(agent), heapAtTasks: in.tasks}
		res, wall, err := streamRun(pol, in)
		m.noteLive(pol.liveBytes)
		o.attempted += spec.jobs
		if err != nil {
			o.failed += spec.jobs
			o.problemf("round %d: %v", r, err)
			continue
		}
		rounds = append(rounds, streamRound(pol, wall, spec.jobs))
		quality += streamQuality(res)
		decisions += len(pol.decideS)
	}
	cfg.host.sample()
	used := m.finish()
	if len(rounds) == 0 {
		return nil, fmt.Errorf("no stream completed: %v", o.problems)
	}
	noteRounds(o, rounds)
	e2eMetrics(o, setup, medianOfRounds(rounds), used, o.attempted, quality/float64(len(rounds)))
	o.notef("rounds=%d jobs_per_round=%d decisions=%d tail=p%g", spec.rounds, spec.jobs, decisions, rounds[0].tailPct)
	return o, nil
}

// traceStream is the traced pass: the same stream with the policy timed as in
// the measured phase and with spans recorded too, then the stream-side probes.
func traceStream(cfg runConfig, spec streamSpec, agent *core.Agent, in streamInput, o *outcome) error {
	rec := newRecorder()
	m := startMeter()
	cfg.host.sample()
	untraced := &timedPolicy{inner: core.NewPolicy(agent)}
	plain, plainWall, err := streamRun(untraced, in)
	o.attempted += spec.jobs
	if err != nil {
		o.failed += spec.jobs
		return fmt.Errorf("untraced stream: %w", err)
	}
	demotedMetrics(o, medianOfRounds([]roundStats{streamRound(untraced, plainWall, spec.jobs)}), streamQuality(plain))
	cfg.host.sample()
	pol := &timedPolicy{inner: core.NewPolicy(agent), rec: rec, req: 1, parent: "stream.run"}
	start := time.Now()
	traced, tracedWall, err := streamRun(pol, in)
	rec.add("stream", "stream.run", "", 1, start, start.Add(tracedWall))
	o.attempted += spec.jobs
	if err != nil {
		o.failed += spec.jobs
		return fmt.Errorf("traced stream: %w", err)
	}
	cfg.host.sample()
	used := m.finish()
	// Same arrivals, same noise: the wrapper must not change a decision.
	if plain.MeanResponse != traced.MeanResponse || plain.Decisions != traced.Decisions {
		o.problemf("untraced stream answered mean response %v in %d decisions, traced %v in %d",
			plain.MeanResponse, plain.Decisions, traced.MeanResponse, traced.Decisions)
	}
	totals := replayTotals{
		ops:       spec.jobs,
		tasks:     len(traced.Sim.Trace),
		rollout:   tracedWall,
		decide:    pol.decideS,
		decisions: traced.Decisions,
		idle:      traced.IdleDecisions,
	}
	n := len(pol.decideS)
	q1, q4 := pol.decideS[:n/4], pol.decideS[n-n/4:]
	slow := 0
	for _, d := range pol.decideS {
		if usOf(d) > slowDecideUs {
			slow++
		}
	}
	procMetrics(o, used, 2*spec.jobs)
	o.metrics["trace.overhead_share"] = 1 - plainWall.Seconds()/tracedWall.Seconds()
	o.metrics["trace.spans"] = float64(rec.len())
	// On a stream every layer is called from the benchmark's own goroutine,
	// so the decide spans and the run's self time add up to the wall exactly.
	o.metrics["trace.accounted_share"] = 1
	o.metrics["stream.decide_us_q1"] = meanUs(q1)
	o.metrics["stream.decide_us_q4"] = meanUs(q4)
	if q := meanUs(q1); q > 0 {
		o.metrics["stream.decide_growth"] = meanUs(q4) / q
	}
	o.metrics["stream.slow_decide_share"] = float64(slow) / float64(len(totals.decide))
	o.metrics["stream.decisions_per_job"] = float64(len(totals.decide)) / float64(totals.ops)

	if _, wall, err := streamRun(stream.NewHEFTPerJobPolicy(), in); err != nil {
		o.problemf("HEFT-per-job stream: %v", err)
	} else {
		o.metrics["stream.heft_per_job_jobs_per_s"] = float64(spec.jobs) / wall.Seconds()
	}
	o.metrics["stream.validate_ms"] = timeNs(o.reps(5), func() { _ = traced.Validate() }) / 1e6
	o.metrics["stream.generate_ms"] = timeNs(o.reps(5), func() {
		_, _ = streamProcess(spec.jobs).Generate(rand.New(rand.NewSource(1)))
	}) / 1e6

	// Decision-state probes on a short stream: windows stay tiny whatever the
	// history, and rebuilding descendant features per sample on the full
	// union graph would cost more than the stream itself.
	sampler := &timedPolicy{inner: core.NewPolicy(agent), sampleEvery: 16, agentCfg: agent.Cfg}
	if _, _, err := streamRun(sampler, firstArrivals(in, spec.warmJobs)); err != nil {
		o.problemf("sampling stream: %v", err)
	}
	totals.addSamples(agent, sampler)
	graphProbes(&totals, in.arrivals[0])
	totals.report(o, agent.Cfg.Hidden)

	if err := addJobReplay(o, in); err != nil {
		o.problemf("AddJob replay: %v", err)
	}
	obsProbes(o)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return rec.writeChromeTrace(filepath.Join(cfg.outDir, "trace_stream_1k.json"))
}

// firstArrivals is in cut to its first n arrivals.
func firstArrivals(in streamInput, n int) streamInput {
	if n > len(in.arrivals) {
		n = len(in.arrivals)
	}
	return streamInput{arrivals: in.arrivals[:n], noiseSeed: in.noiseSeed}
}

// graphProbes times the task-graph calls made per arriving job.
func graphProbes(t *replayTotals, a stream.Arrival) {
	for i := 0; i < 20; i++ {
		start := time.Now()
		g := taskgraph.NewByKind(a.Kind, a.Size)
		t.build = append(t.build, time.Since(start))
		start = time.Now()
		featSink = taskgraph.DescendantFeatures(g)
		t.descfeat = append(t.descfeat, time.Since(start))
		start = time.Now()
		topoSink, _ = g.TopoOrder()
		t.topo = append(t.topo, time.Since(start))
	}
}

// addJobReplay drives a cluster of its own through the same arrivals under
// the cheap MCT policy and times every AddJob call, then the descendant
// features of the union graph the policy would recompute after an arrival.
func addJobReplay(o *outcome, in streamInput) error {
	plat := platform.New(2, 2)
	cl, err := sim.NewCluster(plat, sim.Options{Sigma: streamSigma, Rng: rand.New(rand.NewSource(in.noiseSeed))})
	if err != nil {
		return err
	}
	pol := sched.MCTPolicy{}
	pol.Reset(cl.State())
	addS := make([]time.Duration, 0, len(in.arrivals))
	for i, a := range in.arrivals {
		if err := cl.RunUntil(pol, a.At); err != nil {
			return err
		}
		g := a.Graph()
		tt := platform.TimingFor(a.Kind)
		start := time.Now()
		_, err := cl.AddJob(i, g, tt)
		addS = append(addS, time.Since(start))
		if err != nil {
			return err
		}
	}
	if err := cl.Drain(pol); err != nil {
		return err
	}
	n := len(addS)
	o.metrics["sim.addjob_us_q1"] = meanUs(addS[:n/4])
	o.metrics["sim.addjob_us_q4"] = meanUs(addS[n-n/4:])
	union := cl.State().Graph
	o.metrics["taskgraph.descfeat_union_ms"] = timeNs(o.reps(3), func() { featSink = taskgraph.DescendantFeatures(union) }) / 1e6
	return nil
}
