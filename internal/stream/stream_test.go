package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

var chaosKinds = []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR}

func testArrivals(t *testing.T, seed int64, jobs int, rate float64) []Arrival {
	t.Helper()
	arr, err := PoissonProcess{
		Rate: rate, Jobs: jobs, Kinds: chaosKinds, Sizes: []int{2, 3},
	}.Generate(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestPoissonGenerateDeterministic(t *testing.T) {
	a := testArrivals(t, 3, 20, 2.0)
	b := testArrivals(t, 3, 20, 2.0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different arrival streams")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
}

func TestArrivalsJSONLRoundTrip(t *testing.T) {
	want := testArrivals(t, 9, 12, 1.5)
	var buf bytes.Buffer
	if err := WriteArrivals(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArrivals(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", got, want)
	}
	if _, err := ReadArrivals(bytes.NewReader([]byte(`{"at_ms": -1, "kind": "lu", "size": 2}`))); err == nil {
		t.Fatal("negative arrival time accepted")
	}
	if _, err := ReadArrivals(bytes.NewReader([]byte(`{"at_ms": 1, "kind": "nope", "size": 2}`))); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// runStream executes one stream run with a fresh policy instance.
func runStream(t *testing.T, mkPol func() sim.Policy, arr []Arrival, seed int64, faults *sim.FaultPlan) *Result {
	t.Helper()
	res, err := Run(mkPol(), Config{
		Platform: platform.New(2, 2),
		Arrivals: arr,
		Sigma:    0.1,
		Faults:   faults,
		Rng:      rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStreamRunCompletesAndValidates(t *testing.T) {
	arr := testArrivals(t, 1, 8, 3.0)
	res := runStream(t, func() sim.Policy { return sched.MCTPolicy{} }, arr, 42, nil)
	if len(res.Jobs) != len(arr) {
		t.Fatalf("got %d job results for %d arrivals", len(res.Jobs), len(arr))
	}
	for _, j := range res.Jobs {
		if j.DoneAt < j.ArriveAt || j.Response < 0 {
			t.Fatalf("job %d has impossible timing: %+v", j.Job, j)
		}
		if j.IsolatedMakespan <= 0 || j.Slowdown <= 0 {
			t.Fatalf("job %d missing isolated baseline: %+v", j.Job, j)
		}
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %v outside (0, 1]", res.Utilization)
	}
	if res.MeanResponse <= 0 || res.P99Response < res.MeanResponse/float64(len(arr)) {
		t.Fatalf("response stats implausible: mean %v p99 %v", res.MeanResponse, res.P99Response)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("union schedule invalid: %v", err)
	}
}

// TestStreamFaultsMidStream pins the PR 5 integration: a plan dense enough to
// kill work mid-stream still yields a complete, strictly valid union
// schedule, and the re-executions show up as kills.
func TestStreamFaultsMidStream(t *testing.T) {
	arr := testArrivals(t, 5, 8, 4.0)
	horizon := arr[len(arr)-1].At + 4000
	plan := sim.GeneratePlan(99, 4, sim.SpecForRate(2.0, horizon))
	res := runStream(t, func() sim.Policy { return sched.NewReplanHEFTPolicy() }, arr, 7, plan)
	if err := res.Validate(); err != nil {
		t.Fatalf("faulted union schedule invalid: %v", err)
	}
	for _, j := range res.Jobs {
		if j.DoneAt < j.ArriveAt {
			t.Fatalf("job %d unfinished under faults: %+v", j.Job, j)
		}
	}
}

// fingerprint reduces a Result to a comparable value covering everything
// downstream consumers read.
func fingerprint(r *Result) string {
	return fmt.Sprintf("%+v|%+v|%v|%v|%v|%v|%v|%d|%d|%d",
		r.Jobs, r.Sim.Trace, r.Makespan, r.MeanResponse, r.P99Response, r.MeanSlowdown,
		r.MeanReadyDepth, r.Kills, r.Decisions, r.IdleDecisions)
}

// TestStreamReplayChaos is the bit-identical replay sweep: 25 random
// mixed-family Poisson streams × faults on/off × every policy family, each
// run twice from the same seed. Any divergence — map iteration, shared
// state, hidden randomness — fails the fingerprint comparison.
func TestStreamReplayChaos(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 4})
	faultAgent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 4, FaultFeatures: true})
	policies := map[string]func() sim.Policy{
		"mct":        func() sim.Policy { return sched.MCTPolicy{} },
		"replanheft": func() sim.Policy { return sched.NewReplanHEFTPolicy() },
		"heftperjob": func() sim.Policy { return NewHEFTPerJobPolicy() },
		"random":     func() sim.Policy { return sched.RandomPolicy{Rng: rand.New(rand.NewSource(123))} },
		"readys":     func() sim.Policy { return core.NewPolicy(agent) },
		"readys-ff":  func() sim.Policy { return core.NewPolicy(faultAgent) },
	}
	for i := 0; i < 25; i++ {
		seed := int64(1000 + i)
		arr := testArrivals(t, seed, 4, 2.0+float64(i%3))
		horizon := arr[len(arr)-1].At + 3000
		for fi, faults := range []*sim.FaultPlan{nil, sim.GeneratePlan(seed, 4, sim.SpecForRate(1.0, horizon))} {
			for name, mk := range policies {
				a := runStream(t, mk, arr, seed, faults)
				b := runStream(t, mk, arr, seed, faults)
				if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
					t.Fatalf("stream %d faults=%d policy %s not replay-identical:\n%s\nvs\n%s", i, fi, name, fa, fb)
				}
				if err := a.Validate(); err != nil {
					t.Fatalf("stream %d faults=%d policy %s invalid: %v", i, fi, name, err)
				}
			}
		}
	}
}

// TestHEFTPerJobSingleJobReasonable sanity-checks the baseline: on a lone
// Cholesky job it must finish everything and not be wildly worse than MCT.
func TestHEFTPerJobSingleJobReasonable(t *testing.T) {
	arr := []Arrival{{At: 0, Kind: taskgraph.Cholesky, Size: 4}}
	hpj := runStream(t, func() sim.Policy { return NewHEFTPerJobPolicy() }, arr, 3, nil)
	mct := runStream(t, func() sim.Policy { return sched.MCTPolicy{} }, arr, 3, nil)
	if hpj.Makespan <= 0 || hpj.Makespan > 3*mct.Makespan {
		t.Fatalf("HEFT-per-job makespan %v implausible vs MCT %v", hpj.Makespan, mct.Makespan)
	}
	if err := hpj.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamJobMetricsAgainstTrace cross-checks the job bookkeeping against
// the union trace: a job's DoneAt must equal the max end time over its tasks
// and its arrival must precede every one of its task starts.
func TestStreamJobMetricsAgainstTrace(t *testing.T) {
	arr := testArrivals(t, 11, 6, 2.0)
	res := runStream(t, func() sim.Policy { return sched.MCTPolicy{} }, arr, 13, nil)
	ends := make(map[int]float64)
	base := 0
	for _, j := range res.Jobs {
		for ti := 0; ti < j.Tasks; ti++ {
			p := res.Sim.Trace[base+ti]
			if p.Start < j.ArriveAt-1e-9 {
				t.Fatalf("job %d task %d started at %v before arrival %v", j.Job, p.Task, p.Start, j.ArriveAt)
			}
			if p.End > ends[j.Job] {
				ends[j.Job] = p.End
			}
		}
		base += j.Tasks
	}
	for _, j := range res.Jobs {
		if ends[j.Job] != j.DoneAt {
			t.Fatalf("job %d DoneAt %v != max task end %v", j.Job, j.DoneAt, ends[j.Job])
		}
	}
}

// TestStreamIncrementalIdentical pins the incremental decision state against
// its full-rebuild oracle across streaming arrivals: Cluster.AddJob bumps the
// graph epoch mid-episode, so every cache layer (window, adjacency, static
// features, decision memo) must invalidate correctly. The default policy
// (incremental + memo + inference tape) must fingerprint identically to the
// pre-optimization path (full EncodeFault rebuild, tape
// forward, no memo), with and without fault plans. Six streams are short; the
// seventh is 60 jobs long, so the append-only caches (descendant features,
// neighbour lists, BFS scratch) outgrow their first allocation and regrow
// geometrically several times inside the comparison.
//
// Each stream is also replayed on a cluster handed a graph built new for every
// arrival (unfrozen, so validated on arrival) instead of Run's frozen per-shape
// templates: the union schedule must not move, and the union graph Run's bulk
// appends built must equal, row for row, the one AddTask and AddEdge build.
func TestStreamIncrementalIdentical(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 4})
	faultAgent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 4, FaultFeatures: true})
	for i := 0; i < 7; i++ {
		seed := int64(5000 + i)
		jobs := 5
		if i == 6 {
			jobs = 60
		}
		arr := testArrivals(t, seed, jobs, 2.5)
		horizon := arr[len(arr)-1].At + 3000
		for fi, faults := range []*sim.FaultPlan{nil, sim.GeneratePlan(seed, 4, sim.SpecForRate(1.0, horizon))} {
			for _, ag := range []*core.Agent{agent, faultAgent} {
				oracle := runStream(t, func() sim.Policy { return core.NewReferencePolicy(ag) }, arr, seed, faults)
				want := fingerprint(oracle)
				fresh, union := freshGraphStream(t, core.NewPolicy(ag), arr, seed, faults)
				if !reflect.DeepEqual(fresh, oracle.Sim) {
					t.Fatalf("stream %d faults=%d ff=%v: a graph built per arrival schedules differently from the frozen templates",
						i, fi, ag.Cfg.FaultFeatures)
				}
				if g := oracle.graph; !reflect.DeepEqual(g.Tasks, union.Tasks) || !reflect.DeepEqual(g.Succ, union.Succ) || !reflect.DeepEqual(g.Pred, union.Pred) {
					t.Fatalf("stream %d: the appended union graph differs from the AddTask/AddEdge one", i)
				}
				got := runStream(t, func() sim.Policy { return core.NewPolicy(ag) }, arr, seed, faults)
				if g := fingerprint(got); g != want {
					t.Fatalf("stream %d faults=%d ff=%v incremental diverged from rebuild oracle:\n%s\nvs\n%s",
						i, fi, ag.Cfg.FaultFeatures, g, want)
				}
			}
		}
	}
}

// freshGraphStream is Run's loop over a cluster that gets a.Graph(), built new
// and unfrozen, at every arrival. Beside the union schedule it returns the union
// graph as AddJob built it before it appended in bulk: task by task, then edge
// by edge in Succ order.
func freshGraphStream(t *testing.T, pol sim.Policy, arr []Arrival, seed int64, faults *sim.FaultPlan) (sim.Result, *taskgraph.Graph) {
	t.Helper()
	cl, err := sim.NewCluster(platform.New(2, 2), sim.Options{Sigma: 0.1, Rng: rand.New(rand.NewSource(seed)), Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	union := taskgraph.NewCustom(taskgraph.Random, [taskgraph.NumKernels]string{"k0", "k1", "k2", "k3"})
	pol.Reset(cl.State())
	for i, a := range arr {
		if err := cl.RunUntil(pol, a.At); err != nil {
			t.Fatal(err)
		}
		g := a.Graph()
		base, err := cl.AddJob(i, g, platform.TimingFor(a.Kind))
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range g.Tasks {
			union.AddTask(task.Kernel, fmt.Sprintf("j%d:%s", i, task.Name))
		}
		for from, succ := range g.Succ {
			for _, to := range succ {
				union.AddEdge(base+from, base+to)
			}
		}
	}
	if err := cl.Drain(pol); err != nil {
		t.Fatal(err)
	}
	return cl.Result(), union
}

// TestHEFTPerJobRanksMatchUnion pins the append-only ranks: after every
// arrival each task's rank — just computed or kept from an earlier arrival —
// equals sched.UpwardRanksFor over the whole union bit for bit.
func TestHEFTPerJobRanksMatchUnion(t *testing.T) {
	cl, err := sim.NewCluster(platform.New(2, 2), sim.Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	s := cl.State()
	p := NewHEFTPerJobPolicy()
	p.Reset(s)
	for i, a := range testArrivals(t, 21, 40, 3.0) {
		if _, err := cl.AddJob(i, a.Graph(), platform.TimingFor(a.Kind)); err != nil {
			t.Fatal(err)
		}
		p.refresh(s)
		want := sched.UpwardRanksFor(s.Graph, s.Platform, s.TaskTiming)
		if len(p.rank) != len(want) {
			t.Fatalf("after job %d: %d ranks for %d tasks", i, len(p.rank), len(want))
		}
		for task := range want {
			if math.Float64bits(p.rank[task]) != math.Float64bits(want[task]) {
				t.Fatalf("after job %d: rank[%d] = %v, union ranks give %v", i, task, p.rank[task], want[task])
			}
		}
	}
}

// TestStreamCostFlat makes "an arrival costs its own job, not the stream so
// far" a contract: the bytes a READYS stream allocates per job must not grow
// with the stream's length. TotalAlloc counts every allocation whether or not
// the collector has run, so the figure repeats for a fixed seed. With any
// per-arrival pass over the union DAG the ratio below is about 4.
//
// The figure is bounded absolutely too, at 1.25 × what it reads: 9.5 kB per
// job at 600 jobs, of which the union graph, the State and the schedule's
// validation are most. It was 16.6 kB while every arrival generated, validated
// and HEFT-scheduled a graph that Run now builds once per (family, size).
func TestStreamCostFlat(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 16, Seed: 4})
	bytesPerJob := func(jobs int) float64 {
		arr := testArrivals(t, 77, jobs, 8.0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := runStream(t, func() sim.Policy { return core.NewPolicy(agent) }, arr, 78, nil)
		runtime.ReadMemStats(&after)
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(jobs)
	}
	short, long := bytesPerJob(150), bytesPerJob(600)
	t.Logf("allocated per job: %.0f B over 150 jobs, %.0f B over 600 jobs (ratio %.2f)", short, long, long/short)
	if long > 1.5*short {
		t.Fatalf("allocation per job grows with stream length: %.0f B at 150 jobs, %.0f B at 600 (ratio %.2f > 1.5)",
			short, long, long/short)
	}
	if long > 12000 {
		t.Fatalf("%.0f B allocated per job over 600 jobs, contract is 12 000: something is built per arrival again", long)
	}
}
