package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"readys/internal/core"
	"readys/internal/nn"
	"readys/internal/obs"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
	"readys/internal/tensor"
)

// timedPolicy wraps a sim.Policy from outside and times every Decide call.
// With sampleEvery > 0 it also rebuilds the decision state of every
// sampleEvery-th call through the public encoder, timing the rebuild and the
// adjacency normalisation and keeping the encoded state for later probes.
type timedPolicy struct {
	inner   sim.Policy
	decideS []time.Duration // one entry per Decide call
	rec     *recorder       // spans for a traced run (nil: none)
	req     int64
	parent  string

	// heapAtTasks, when positive, makes the policy read the live heap once,
	// at the first decision on a graph of that many tasks: on a stream, when
	// the last job has arrived and the cluster holds its whole history.
	heapAtTasks int
	liveBytes   uint64

	sampleEvery int
	agentCfg    core.Config
	feats       [][taskgraph.NumKernels]float64
	samples     []*core.EncodedState
	encodeS     []time.Duration
	adjacencyS  []time.Duration
}

const maxStateSamples = 256

func (p *timedPolicy) Reset(s *sim.State) {
	p.inner.Reset(s)
	p.feats = nil
}

func (p *timedPolicy) Decide(s *sim.State, r int) int {
	if p.sampleEvery > 0 && len(p.decideS)%p.sampleEvery == 0 && len(p.samples) < maxStateSamples {
		p.sampleState(s, r)
	}
	if p.heapAtTasks > 0 && s.Graph.NumTasks() >= p.heapAtTasks {
		p.liveBytes, p.heapAtTasks = liveHeap(), 0
	}
	start := time.Now()
	task := p.inner.Decide(s, r)
	end := time.Now()
	p.decideS = append(p.decideS, end.Sub(start))
	p.rec.add("core", "core.decide", p.parent, p.req, start, end)
	return task
}

// sampleState encodes the current state from scratch, the way the policy's
// rebuild path does, and times the pieces.
func (p *timedPolicy) sampleState(s *sim.State, r int) {
	if len(p.feats) != s.Graph.NumTasks() {
		p.feats = taskgraph.DescendantFeatures(s.Graph)
	}
	start := time.Now()
	es := core.EncodeFault(s, r, p.feats, p.agentCfg.Window, p.agentCfg.Directed, p.agentCfg.FaultFeatures)
	p.encodeS = append(p.encodeS, time.Since(start))
	p.samples = append(p.samples, es)

	rowOf := make(map[int]int, len(es.Nodes))
	for row, t := range es.Nodes {
		rowOf[t] = row
	}
	succ := make([][]int, len(es.Nodes))
	for row, t := range es.Nodes {
		for _, j := range s.Graph.Succ[t] {
			if jr, ok := rowOf[j]; ok {
				succ[row] = append(succ[row], jr)
			}
		}
	}
	start = time.Now()
	adjacencySink = nn.NormalizedAdjacency(len(es.Nodes), succ)
	p.adjacencyS = append(p.adjacencyS, time.Since(start))
}

var adjacencySink *tensor.Sparse

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func meanUs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return usOf(sumDur(ds)) / float64(len(ds))
}

func sumDur(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

func percentileUs(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = usOf(d)
	}
	sort.Float64s(xs)
	return percentile(xs, p)
}

// replayCase is one single-DAG problem to replay in-process.
type replayCase struct {
	agent *core.Agent
	prob  core.Problem
	seed  int64
	// wantMakespan, when positive, is what the serving path answered for the
	// same problem and seed; the replay must reproduce it bit for bit.
	wantMakespan float64
}

// replayTotals accumulates what the replays of a workload's requests cost,
// layer by layer, all timed from outside.
type replayTotals struct {
	ops                     int
	tasks                   int
	rollout                 time.Duration
	decide                  []time.Duration
	decisions, idle         int
	validate, heft, mct     []time.Duration
	encode, adjacency, tape []time.Duration
	windowRows              []float64
	samples                 []*core.EncodedState
	build, descfeat, topo   []time.Duration
}

// replay runs a case twice: once purely timed (rollout wall and every Decide),
// once with state sampling on, then times the per-request references the
// serving path also runs (validation, HEFT, the MCT rollout). It returns an
// error when the replay disagrees with the answer it was given.
func (t *replayTotals) replay(c replayCase) error {
	timed := &timedPolicy{inner: core.NewPolicy(c.agent)}
	start := time.Now()
	res, err := c.prob.Simulate(timed, rand.New(rand.NewSource(c.seed)))
	wall := time.Since(start)
	if err != nil {
		return err
	}
	if c.wantMakespan > 0 && res.Makespan != c.wantMakespan {
		return fmt.Errorf("in-process replay gave makespan %v, the serving path %v", res.Makespan, c.wantMakespan)
	}
	t.ops++
	t.tasks += c.prob.Graph.NumTasks()
	t.rollout += wall
	t.decide = append(t.decide, timed.decideS...)
	t.decisions += res.Decisions
	t.idle += res.IdleDecisions

	start = time.Now()
	err = sim.ValidateResult(c.prob.Graph, c.prob.Platform.Size(), res)
	t.validate = append(t.validate, time.Since(start))
	if err != nil {
		return err
	}
	start = time.Now()
	heftSink = sched.HEFT(c.prob.Graph, c.prob.Platform, c.prob.Timing).Makespan
	t.heft = append(t.heft, time.Since(start))
	start = time.Now()
	_, err = c.prob.Simulate(sched.MCTPolicy{}, rand.New(rand.NewSource(c.seed)))
	t.mct = append(t.mct, time.Since(start))
	if err != nil {
		return err
	}

	sampler := &timedPolicy{inner: core.NewPolicy(c.agent), sampleEvery: 16, agentCfg: c.agent.Cfg}
	if _, err := c.prob.Simulate(sampler, rand.New(rand.NewSource(c.seed))); err != nil {
		return err
	}
	t.addSamples(c.agent, sampler)

	g := c.prob.Graph
	if g.Tiles > 0 {
		start = time.Now()
		graphSink = taskgraph.NewByKind(g.Kind, g.Tiles)
		t.build = append(t.build, time.Since(start))
	}
	start = time.Now()
	featSink = taskgraph.DescendantFeatures(g)
	t.descfeat = append(t.descfeat, time.Since(start))
	start = time.Now()
	topoSink, _ = g.TopoOrder()
	t.topo = append(t.topo, time.Since(start))
	return nil
}

// addSamples takes a sampling policy's encoded states and times the tape
// forward (forward pass plus returning its buffers) on each.
func (t *replayTotals) addSamples(agent *core.Agent, p *timedPolicy) {
	t.encode = append(t.encode, p.encodeS...)
	t.adjacency = append(t.adjacency, p.adjacencyS...)
	for _, es := range p.samples {
		t.windowRows = append(t.windowRows, float64(len(es.Nodes)))
		start := time.Now()
		fw := agent.Forward(es)
		fw.Binding.Release()
		t.tape = append(t.tape, time.Since(start))
	}
	if room := maxStateSamples - len(t.samples); room > 0 {
		if len(p.samples) < room {
			room = len(p.samples)
		}
		t.samples = append(t.samples, p.samples[:room]...)
	}
}

var (
	heftSink  float64
	graphSink *taskgraph.Graph
	featSink  [][taskgraph.NumKernels]float64
	topoSink  []int
)

// report writes the replay-derived per-layer metrics; hidden is the agent's
// embedding width, the column count of the tensor probes.
func (t *replayTotals) report(o *outcome, hidden int) {
	if t.ops == 0 {
		return
	}
	decideTotal := sumDur(t.decide)
	o.metrics["core.decide_us"] = meanUs(t.decide)
	o.metrics["core.decide_p95_us"] = percentileUs(t.decide, 95)
	o.metrics["core.decides_per_op"] = float64(len(t.decide)) / float64(t.ops)
	if t.rollout > 0 {
		o.metrics["core.decide_share"] = float64(decideTotal) / float64(t.rollout)
	}
	if t.decisions > 0 {
		o.metrics["core.idle_share"] = float64(t.idle) / float64(t.decisions)
	}
	if t.tasks > 0 {
		o.metrics["sim.loop_us_per_task"] = usOf(t.rollout-decideTotal) / float64(t.tasks)
	}
	o.metrics["sim.validate_us"] = meanUs(t.validate)
	o.metrics["sim.mct_rollout_us"] = meanUs(t.mct)
	o.metrics["sched.heft_us"] = meanUs(t.heft)
	o.metrics["taskgraph.build_us"] = meanUs(t.build)
	o.metrics["taskgraph.descfeat_us"] = meanUs(t.descfeat)
	o.metrics["taskgraph.topo_us"] = meanUs(t.topo)
	t.reportSamples(o, hidden)
}

// reportSamples writes the metrics that come from sampled decision states,
// and the tensor kernels at the workload's mean window size.
func (t *replayTotals) reportSamples(o *outcome, hidden int) {
	if len(t.samples) == 0 {
		return
	}
	rows := mean(t.windowRows)
	o.metrics["core.window_rows"] = rows
	o.metrics["core.encode_rebuild_us"] = meanUs(t.encode)
	o.metrics["core.forward_tape_us"] = meanUs(t.tape)
	o.metrics["nn.adjacency_us"] = meanUs(t.adjacency)

	// The sampled window closest to the mean size stands for the workload.
	best := t.samples[0]
	for _, es := range t.samples {
		if math.Abs(float64(len(es.Nodes))-rows) < math.Abs(float64(len(best.Nodes))-rows) {
			best = es
		}
	}
	n := len(best.Nodes)
	rng := rand.New(rand.NewSource(1))
	h := tensor.RandNormal(rng, n, hidden, 1)
	w := tensor.RandNormal(rng, hidden, hidden, 1)
	o.metrics["tensor.spmm_ns"] = timeNs(o.reps(2000), func() { matrixSink = tensor.SpMM(best.Norm, h) })
	o.metrics["tensor.matmul_ns"] = timeNs(o.reps(2000), func() { matrixSink = tensor.MatMul(h, w) })
	// Computed from shapes, not measured: one multiply-add per stored entry
	// and output column; each entry reads its value, its column index and a
	// row of the dense operand, and every output row is written once.
	nnz := best.Norm.NNZ()
	o.metrics["tensor.spmm_flops"] = float64(2 * nnz * hidden)
	o.metrics["tensor.spmm_bytes"] = float64(nnz*16 + nnz*hidden*8 + n*hidden*8 + (n+1)*8)
}

var matrixSink *tensor.Matrix

// timeNs returns the median over five batches of the mean wall time of one
// call to fn, in ns.
func timeNs(perBatch int, fn func()) float64 {
	batches := make([]float64, 5)
	for b := range batches {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			fn()
		}
		batches[b] = float64(time.Since(start)) / float64(perBatch)
	}
	return median(batches)
}

// obsProbes times the two obs calls the serving path makes on every request
// and decision: recording a complete span and observing into a histogram.
func obsProbes(o *outcome) {
	tr := obs.NewTracer(0)
	o.metrics["obs.span_ns"] = timeNs(o.reps(20000), func() { tr.Complete("probe", "bench", 1, 1, 0, 1, nil) })
	h := obs.NewRegistry().Histogram("bench_probe_us", "probe", []float64{5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000})
	o.metrics["obs.observe_ns"] = timeNs(o.reps(20000), func() { h.Observe(42) })
}

// procMetrics writes the process-level counters of a measured phase.
func procMetrics(o *outcome, m meterResult, ops int) {
	if ops > 0 {
		o.metrics["proc.cpu_ms_per_op"] = float64(m.cpu) / float64(time.Millisecond) / float64(ops)
		o.metrics["proc.mallocs_per_op"] = float64(m.mallocs) / float64(ops)
	}
	o.metrics["proc.gc_cycles"] = float64(m.gcCycles)
	o.metrics["proc.gc_pause_ms"] = m.gcPauseMs
	o.metrics["proc.goroutines_peak"] = float64(m.peakGoroutines)
}
