package readys_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/serve"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

// TestDifferential is the differential harness. A run is a function of its
// seed whichever path schedules it, so each relation runs the corpus cases of
// its groups, under each of its policies, through a candidate route and a
// reference route and holds the two decision traces equal bit for bit:
//   - replay: a run against the same run again;
//   - empty-plan: an empty sim.FaultPlan against none;
//   - traced: a run that records a Chrome trace against one that does not;
//   - reference: core.NewPolicy against core.NewReferencePolicy, the
//     full-rebuild oracle without memo, on DAGs and streams, on one-type
//     platforms and while both GPUs are dead, where rule R makes ∅ illegal;
//     reference-long, the same on a 200-job stream, starts first to run
//     beside the others;
//   - recording: core.NewTrainingPolicy against the reference policy set to
//     record, both sampling from the same generator;
//   - cluster: a sim.Cluster given the DAG as its only job against
//     sim.Simulate;
//   - runner: one sim.Runner reused across the corpus against a new one per
//     case;
//   - fresh-graph: a stream whose job graphs are built new at each arrival
//     against stream.Run's frozen templates;
//   - served, evaluator: with the committed checkpoints, a /v1/schedule
//     answer and exp.Compare with one run against the library route.
func TestDifferential(t *testing.T) {
	for _, rel := range relations {
		t.Run(rel.name, func(t *testing.T) {
			t.Parallel()
			pairs := 0
			for _, c := range corpus {
				if !slices.Contains(strings.Fields(rel.groups), c.group) {
					continue
				} else if c.err != nil {
					t.Fatalf("%v: %v", c, c.err)
				}
				for _, pol := range rel.pols {
					if err := compare(rel.name, c, pol, rel.ref(c, pol), rel.cand(c, pol)); err != nil {
						t.Fatal(err)
					}
					pairs++
				}
			}
			if pairs == 0 {
				t.Fatal("the relation reaches no case of the corpus")
			}
		})
	}
}

// A relation pairs a candidate route with a reference route over the cases of
// its groups and the policies it names.
var relations = []struct {
	name      string
	groups    string
	pols      []string
	cand, ref route
}{
	{"reference-long", "long", []string{"readys"}, library, as("reference")},
	{"replay", "chaos inert decide", dagPolicies, library, library},
	{"empty-plan", "inert", dagPolicies, run{emptyPlan: true}.drive, library},
	{"traced", "chaos inert stream", []string{"fifo", "mct", "readys"}, run{traced: true}.drive, library},
	{"reference", "decide stream", []string{"readys"}, library, as("reference")},
	{"recording", "decide", []string{"training"}, library, as("reference-recording")},
	{"cluster", "cluster", []string{"heft", "mct", "replan-heft", "readys", "idle-until-forced"}, run{cluster: true}.drive, library},
	{"runner", "chaos inert cluster decide checkpoint", []string{"mct", "heft", "readys"}, run{runner: new(sim.Runner)}.drive, library},
	{"fresh-graph", "stream", []string{"readys"}, run{fresh: true}.drive, library},
	{"served", "checkpoint", []string{"readys"}, served, library},
	{"evaluator", "checkpoint", []string{"readys"}, evaluator, library},
}

var dagPolicies = []string{"fifo", "mct", "heft", "replan-heft", "readys"}

// dcase is one case of the corpus, in a group of cases that stand for one
// thing: a DAG (kind and T; a Random DAG of T layers is drawn from seed dag)
// or, when jobs > 0, a Poisson stream of that many Cholesky, LU and QR jobs of
// 2 or 3 tiles at rate jobs/s drawn from seed arrive; a platform; σ; the seed
// of the run's generator; a fault plan; and the agent of the READYS policies,
// or with trainT > 0 the committed checkpoint trained at that tile count.
// build makes the rest, which the runs only read.
type dcase struct {
	group               string
	kind                taskgraph.Kind
	T, jobs, cpus, gpus int
	dag, arrive, seed   int64
	rate, sigma         float64
	faults              faults
	agent               core.Config
	trainT              int

	g    *taskgraph.Graph // nil for a stream
	arr  []stream.Arrival
	plat platform.Platform
	tt   platform.Timing
	heft *sched.HEFTSchedule
	plan *sim.FaultPlan
	ag   *core.Agent
	err  error
}

// faults is sim.GeneratePlan(seed, P, SpecForRate(rate, horizon)) when rate >
// 0, then a death of each (resource, at). The horizon is that many times
// HEFT's projected makespan for a DAG, that many ms past the last arrival for
// a stream; at is a share of the projected makespan or of the last arrival.
type faults struct {
	rate, horizon float64
	seed          int64
	deaths        [][2]float64
}

func (c *dcase) String() string {
	s := fmt.Sprintf("%v T=%d dag %d", c.kind, c.T, c.dag)
	if c.jobs > 0 {
		s = fmt.Sprintf("%d jobs at %g/s from seed %d", c.jobs, c.rate, c.arrive)
	}
	return fmt.Sprintf("%s, %dc%dg σ=%g seed %d, faults %+v, agent %+v, trainT %d", s, c.cpus, c.gpus, c.sigma, c.seed, c.faults, c.agent, c.trainT)
}

// corpus is every case the harness runs.
var corpus = func() []*dcase {
	var cs []*dcase
	add := func(g string, c dcase) { c.group = g; c.build(); cs = append(cs, &c) }
	small := core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 4}
	wide := core.Config{Window: 2, Layers: 2, Hidden: 16, Seed: 5}
	// Random DAGs under random fault plans.
	for s := int64(0); s < 25; s++ {
		add("chaos", dcase{kind: taskgraph.Random, T: 5, dag: s, cpus: 2, gpus: 2, sigma: 0.1 * float64(s%4), seed: s + 1000,
			faults: faults{rate: []float64{0.5, 1, 2}[s%3], horizon: core.FaultHorizonFactor, seed: s*2654435761 + 97},
			agent:  core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 11}})
	}
	// Fault-free DAGs.
	for s := int64(0); s < 8; s++ {
		add("inert", dcase{kind: taskgraph.Random, T: 8, dag: s, cpus: 2, gpus: 1, sigma: 0.25, seed: s, agent: small})
	}
	for _, c := range [][3]float64{{5, 0, 7}, {4, 0, 1}, {4, 0.1, 11}, {5, 0.2, 11}, {4, 0.3, 11}, {5, 0.3, 9}} {
		add("inert", dcase{kind: taskgraph.Cholesky, T: int(c[0]), cpus: 2, gpus: 2, sigma: c[1], seed: int64(c[2]), agent: wide})
	}
	// T=4 factorisations at σ 0 and 0.3, faults off and on, seeds 1–8.
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		for i := range 32 {
			add("cluster", dcase{kind: kind, T: 4, cpus: 2, gpus: 2, sigma: 0.3 * float64(i/16), seed: int64(1 + i%8),
				faults: faults{rate: float64(i / 8 % 2), horizon: 2, seed: int64(1 + i%8)}, agent: small})
		}
	}
	// READYS decisions under noise and faults, on one-type platforms, and
	// after both GPUs die. The plan faulted kills twice in each run it is in.
	faulted := faults{rate: 2, horizon: core.FaultHorizonFactor, seed: 5}
	for _, c := range []dcase{
		{kind: taskgraph.Cholesky, cpus: 2, gpus: 2, sigma: 0.15, seed: 23, agent: wide},
		{kind: taskgraph.Cholesky, cpus: 2, gpus: 2, sigma: 0.15, seed: 23, agent: wide, faults: faulted},
		{kind: taskgraph.LU, cpus: 2, gpus: 2, sigma: 0.15, seed: 23, agent: wide},
		{kind: taskgraph.LU, cpus: 2, gpus: 2, sigma: 0.15, seed: 23, agent: wide, faults: faulted},
		{kind: taskgraph.QR, cpus: 2, gpus: 2, sigma: 0.1, seed: 41, agent: core.Config{Window: 2, Layers: 2, Hidden: 16, Seed: 11}, faults: faulted},
		{kind: taskgraph.Cholesky, cpus: 2, gpus: 2, sigma: 0.2, seed: 4, agent: wide, faults: faults{rate: 1.5, horizon: core.FaultHorizonFactor, seed: 3}},
		{kind: taskgraph.Cholesky, cpus: 4, sigma: 0.1, seed: 3, agent: wide},
		{kind: taskgraph.LU, gpus: 4, sigma: 0.1, seed: 3, agent: wide},
		{kind: taskgraph.QR, cpus: 2, gpus: 2, sigma: 0.1, seed: 3, agent: wide, faults: faults{deaths: [][2]float64{{2, 0.2}, {3, 0.4}}}},
	} {
		c.T = 6
		add("decide", c)
	}
	// Six 5-job streams and a 60-job one, faults and fault features off and on,
	// and an 8-job stream under a harsh plan.
	for i := range 28 {
		s, agent := int64(5000+i/4), small
		agent.FaultFeatures = i%2 == 1
		add("stream", dcase{jobs: 5 + 55*(i/24), rate: 2.5, arrive: s, cpus: 2, gpus: 2, sigma: 0.1, seed: s,
			faults: faults{rate: float64(i / 2 % 2), horizon: 3000, seed: s}, agent: agent})
	}
	add("stream", dcase{jobs: 8, rate: 4, arrive: 3, cpus: 2, gpus: 2, sigma: 0.1, seed: 42, faults: faults{rate: 2, horizon: 4000, seed: 7}, agent: small})
	// A 200-job faulted stream that loses a CPU halfway.
	for _, ff := range []bool{false, true} {
		add("long", dcase{jobs: 200, rate: 6, arrive: 21, cpus: 2, gpus: 2, sigma: 0.1, seed: 22,
			faults: faults{rate: 1, horizon: 3000, seed: 5, deaths: [][2]float64{{0, 0.5}}},
			agent:  core.Config{Window: 2, Layers: 2, Hidden: 16, Seed: 6, FaultFeatures: ff}})
	}
	// A Figure 3 and a Figure 4 cell on the committed checkpoints.
	add("checkpoint", dcase{kind: taskgraph.LU, T: 8, trainT: 8, cpus: 2, gpus: 2, sigma: 0.2, seed: 42})
	add("checkpoint", dcase{kind: taskgraph.Cholesky, T: 10, trainT: 8, cpus: 4, sigma: 0.1, seed: 43})
	return cs
}()

// build makes the case's graph or arrivals, platform, fault plan and agent.
func (c *dcase) build() {
	c.plat, c.tt = platform.New(c.cpus, c.gpus), platform.TimingFor(c.kind)
	var span, horizon float64
	switch {
	case c.jobs > 0:
		c.arr, c.err = stream.PoissonProcess{Rate: c.rate, Jobs: c.jobs, Sizes: []int{2, 3},
			Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR}}.Generate(rand.New(rand.NewSource(c.arrive)))
		span = c.arr[len(c.arr)-1].At
		horizon = span + c.faults.horizon
	case c.kind == taskgraph.Random:
		c.g = taskgraph.NewLayeredRandom(rand.New(rand.NewSource(c.dag)), map[int]taskgraph.RandomConfig{
			5: {Layers: 5, WidthMin: 2, WidthMax: 5, EdgeProb: 0.35, LongEdgeProb: 0.1}, 8: taskgraph.DefaultRandomConfig()}[c.T])
	default:
		c.g = taskgraph.NewByKind(c.kind, c.T)
	}
	if c.g != nil {
		c.err = c.g.Freeze()
		c.heft = sched.HEFT(c.g, c.plat, c.tt)
		span = c.heft.Makespan
		horizon = span * c.faults.horizon
	}
	if f := c.faults; f.rate > 0 || len(f.deaths) > 0 {
		c.plan = sim.GeneratePlan(f.seed, c.plat.Size(), sim.SpecForRate(f.rate, horizon))
		for _, d := range f.deaths {
			c.plan.Events = append(c.plan.Events, sim.FaultEvent{Kind: sim.FaultDeath, Resource: int(d[0]), At: d[1] * span})
		}
	}
	if c.trainT > 0 {
		c.ag, c.err = exp.LoadAgent(exp.DefaultAgentSpec(c.kind, c.trainT, c.cpus, c.gpus), exp.DefaultModelsDir())
	} else {
		c.ag = core.NewAgent(c.agent)
	}
}

// policies builds each named policy for one run of a case.
var policies = map[string]func(c *dcase) sim.Policy{
	"fifo":              func(*dcase) sim.Policy { return firstReady{} },
	"idle-until-forced": func(*dcase) sim.Policy { return firstReady{idle: true} },
	"mct":               func(*dcase) sim.Policy { return sched.MCTPolicy{} },
	"heft":              func(c *dcase) sim.Policy { return sched.NewStaticPolicy(c.heft) },
	"replan-heft":       func(*dcase) sim.Policy { return sched.NewReplanHEFTPolicy() },
	"readys":            func(c *dcase) sim.Policy { return core.NewPolicy(c.ag) },
	"reference":         func(c *dcase) sim.Policy { return core.NewReferencePolicy(c.ag) },
	"training":          func(c *dcase) sim.Policy { return core.NewTrainingPolicy(c.ag, rand.New(rand.NewSource(7))) },
	"reference-recording": func(c *dcase) sim.Policy {
		p := core.NewReferencePolicy(c.ag)
		p.Record, p.Rng = true, rand.New(rand.NewSource(7))
		return p
	},
}

// firstReady starts the lowest-numbered ready task; with idle, it answers ∅
// until the engine forces a start.
type firstReady struct{ idle bool }

func (firstReady) Reset(*sim.State) {}
func (p firstReady) Decide(s *sim.State, _ int) int {
	if p.idle && !s.MustAct {
		return sim.NoTask
	}
	return s.Ready[0]
}

// chooser notes the task its policy chooses at each decision.
type chooser struct {
	sim.Policy
	chose []int
}

func (p *chooser) Decide(s *sim.State, r int) int {
	task := p.Policy.Decide(s, r)
	p.chose = append(p.chose, task)
	return task
}

// trace is what a route observed of one run, field by field, each element
// printed with %v: its shortest float formatting tells any two float64s
// apart but NaNs. A route leaves out the fields it cannot observe.
type trace map[string][]string

// A route runs a case under the named policy.
type route func(c *dcase, pol string) trace

// as is the library route under policy pol whatever the relation names.
func as(pol string) route { return func(c *dcase, _ string) trace { return library(c, pol) } }

// run schedules a case: sim.Simulate for a DAG and stream.Run for a stream,
// unless a field asks for another way.
type run struct {
	emptyPlan, traced bool
	cluster, fresh    bool // a one-job cluster for a DAG; graphs built per arrival for a stream
	runner            *sim.Runner
}

var library route = run{}.drive

func (how run) drive(c *dcase, pol string) trace {
	p := &chooser{Policy: policies[pol](c)}
	opt := sim.Options{Sigma: c.sigma, Rng: rand.New(rand.NewSource(c.seed)), Faults: c.plan}
	if how.emptyPlan {
		opt.Faults = &sim.FaultPlan{}
	}
	if how.traced {
		opt.Tracer = obs.NewTracer(0)
	}
	var res sim.Result
	var err error
	switch {
	case c.arr != nil && !how.fresh:
		var sr *stream.Result
		if sr, err = stream.Run(p, stream.Config{Platform: c.plat, Arrivals: c.arr, Sigma: c.sigma, Faults: opt.Faults, Rng: opt.Rng, Tracer: opt.Tracer}); err == nil {
			res = sr.Sim
		}
	case c.arr != nil || how.cluster:
		res, err = cluster(c, p, opt)
	case how.runner != nil:
		res, err = how.runner.Simulate(c.g, c.plat, c.tt, p, opt)
	default:
		res, err = sim.Simulate(c.g, c.plat, c.tt, p, opt)
	}
	tr := trace{"error": strs(err), "makespan": strs(res.Makespan), "decisions": strs(res.Decisions), "∅": strs(res.IdleDecisions),
		"forced phases": strs(res.ForcedPhases), "decision": strs(p.chose...), "placement": strs(res.Trace...), "kill": strs(res.Kills...), "step": nil}
	if cp, ok := p.Policy.(*core.Policy); ok {
		for _, st := range cp.Steps {
			tr["step"] = append(tr["step"], fmt.Sprint(st.LogProb, st.Value))
		}
	}
	return tr
}

// cluster schedules the case on a new sim.Cluster: a DAG as its only job at
// time 0, a stream's jobs from graphs built new at each arrival.
func cluster(c *dcase, p sim.Policy, opt sim.Options) (sim.Result, error) {
	cl, err := sim.NewCluster(c.plat, opt)
	if err != nil {
		return sim.Result{}, err
	}
	p.Reset(cl.State())
	if c.g != nil {
		_, err = cl.AddJob(0, c.g, c.tt)
	}
	for i := 0; i < len(c.arr) && err == nil; i++ {
		if err = cl.RunUntil(p, c.arr[i].At); err == nil {
			_, err = cl.AddJob(i, c.arr[i].Graph(), platform.TimingFor(c.arr[i].Kind))
		}
	}
	if err == nil {
		err = cl.Drain(p)
	}
	return cl.Result(), err
}

// served asks a new in-process server's /v1/schedule for the case.
func served(c *dcase, _ string) trace {
	srv := serve.New(serve.Config{ModelsDir: exp.DefaultModelsDir(), Workers: 1, Queue: 4, RequestTimeout: 10 * time.Second})
	defer srv.Shutdown(context.Background())
	// Marshalling a struct of numbers and strings cannot fail.
	body, _ := json.Marshal(serve.ScheduleRequest{Kind: c.kind.String(), T: c.T, TrainT: c.trainT, CPUs: c.cpus, GPUs: c.gpus, Sigma: c.sigma, Seed: c.seed})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
		return trace{"error": {fmt.Sprintf("status %d: %s", rec.Code, rec.Body)}}
	}
	tr := trace{"makespan": strs(resp.Makespan), "decisions": strs(resp.Decisions), "∅": strs(resp.IdleDecisions), "placement": nil}
	for _, p := range resp.Placements {
		tr["placement"] = append(tr["placement"], fmt.Sprint(sim.Placement{Task: p.Task, Resource: p.Resource, Start: p.Start, End: p.End}))
	}
	return tr
}

// evaluator is the tables' evaluator: exp.Compare's READYS makespan over one
// run, whose seed is the base seed.
func evaluator(c *dcase, _ string) trace {
	pts, err := exp.Compare(c.ag, c.kind, c.T, c.cpus, c.gpus, []float64{c.sigma}, 1, c.seed)
	if err != nil {
		return trace{"error": {err.Error()}}
	}
	return trace{"makespan": strs(pts[0].READYS.Mean)}
}

// strs prints each of xs with %v.
func strs[T any](xs ...T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

// compare names the relation, the case and the first difference between the
// reference trace want and the candidate's got, in the fields both observe,
// or returns nil.
func compare(rel string, c *dcase, pol string, want, got trace) error {
	for _, f := range []string{"error", "decision", "kill", "step", "forced phases", "placement", "decisions", "∅", "makespan"} {
		w, inW := want[f]
		g, inG := got[f]
		for i := 0; inW && inG && i < max(len(w), len(g)); i++ {
			if i >= len(w) || i >= len(g) || w[i] != g[i] {
				at := func(xs []string) string { return fmt.Sprint(xs[i:min(i+1, len(xs))]) }
				return fmt.Errorf("%s: %v, policy %s: %s %d is %s, the reference's %s", rel, c, pol, f, i, at(g), at(w))
			}
		}
	}
	return nil
}
