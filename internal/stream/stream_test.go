package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
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

// TestStreamValidateCatchesRetiredJobViolation: a drained stream's union
// holds no edges, so its precedence lives in the jobs' own graphs alone. Moved
// to start before its predecessor ends — on an idle stretch of its resource,
// its duration kept — a task of a finished job still fails the stream's
// validation, though the union graph alone no longer sees it; and so does a
// job table that does not tile the union.
func TestStreamValidateCatchesRetiredJobViolation(t *testing.T) {
	res := runStream(t, func() sim.Policy { return sched.MCTPolicy{} }, testArrivals(t, 31, 10, 3.0), 32, nil)
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := res.graph.NumEdges(); n != 0 {
		t.Fatalf("a drained stream's union keeps %d edges", n)
	}
	trace := res.Sim.Trace // in task order: every task is done
	// prevEnd[t] is when the task before t on t's resource ends.
	prevEnd := make([]float64, len(trace))
	byRes := make(map[int][]sim.Placement)
	for _, p := range trace {
		byRes[p.Resource] = append(byRes[p.Resource], p)
	}
	for _, ps := range byRes {
		sort.Slice(ps, func(a, b int) bool { return ps[a].Start < ps[b].Start })
		for i := 1; i < len(ps); i++ {
			prevEnd[ps[i].Task] = ps[i-1].End
		}
	}
	task, shift := -1, 0.0
	for _, job := range res.jobTable {
		for i, pred := range job.Graph.Pred {
			p := trace[job.Base+i]
			for _, pi := range pred {
				gap := p.Start - prevEnd[p.Task]
				if trace[job.Base+pi].End == p.Start && gap > 1e-3 && p.End < res.Sim.Makespan {
					task, shift = p.Task, gap/2
				}
			}
		}
	}
	if task < 0 {
		t.Fatal("no task starts at its predecessor's end after an idle stretch of its resource")
	}
	bad := *res
	bad.Sim.Trace = append([]sim.Placement(nil), trace...)
	bad.Sim.Trace[task].Start -= shift
	bad.Sim.Trace[task].End -= shift
	if err := sim.ValidateResult(bad.graph, 4, bad.Sim); err != nil {
		t.Fatalf("the mutation broke more than precedence: %v", err)
	}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "before predecessor") {
		t.Fatalf("task %d moved %.3f ms before its predecessor's end: Validate says %v", task, shift, err)
	}

	bad = *res
	bad.jobTable = res.jobTable[1:]
	if err := bad.Validate(); err == nil {
		t.Fatal("a job table missing its first job validated")
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
// seventh is 60 jobs long. Run reserves the union, so the append-only caches
// (descendant features, BFS scratch) are allocated once there; in the replay
// below, which reserves nothing, they outgrow their first allocation and
// regrow with the union several times inside the comparison.
//
// Each stream is also replayed on a cluster handed a graph built new for every
// arrival (unfrozen, so validated and frozen on arrival) instead of Run's
// frozen per-shape templates: the union schedule must not move, and right
// after each arrival, before the job can finish and its rows be dropped, the
// job's rows of the union AddJob's bulk append built must equal, row for row,
// those AddTask and AddEdge build.
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
				fresh := freshGraphStream(t, core.NewPolicy(ag), arr, seed, faults)
				if !reflect.DeepEqual(fresh, oracle.Sim) {
					t.Fatalf("stream %d faults=%d ff=%v: a graph built per arrival schedules differently from the frozen templates",
						i, fi, ag.Cfg.FaultFeatures)
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
// and unfrozen, at every arrival, and returns the union schedule. Right after
// each AddJob it holds the job's union rows to those of a union built task by
// task, then edge by edge in Succ order.
func freshGraphStream(t *testing.T, pol sim.Policy, arr []Arrival, seed int64, faults *sim.FaultPlan) sim.Result {
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
			union.AddTask(task.Kernel, task.Name)
		}
		for from, succ := range g.Succ {
			for _, to := range succ {
				union.AddEdge(base+from, base+to)
			}
		}
		got, end := cl.State().Graph, base+g.NumTasks()
		if !reflect.DeepEqual(got.Tasks[base:end], union.Tasks[base:end]) || !reflect.DeepEqual(got.Succ[base:end], union.Succ[base:end]) ||
			!reflect.DeepEqual(got.Pred[base:end], union.Pred[base:end]) {
			t.Fatalf("job %d: the appended rows differ from the AddTask/AddEdge ones", i)
		}
	}
	if err := cl.Drain(pol); err != nil {
		t.Fatal(err)
	}
	return cl.Result()
}

// TestHEFTPerJobRanksMatchUnion pins the append-only ranks to what the
// policy's doc claims: after every arrival, the ranks the policy keeps for the
// union — each just computed or kept from an earlier arrival — are the
// concatenation of sched.UpwardRanks over every job so far, each on its own
// graph and timing table, bit for bit.
func TestHEFTPerJobRanksMatchUnion(t *testing.T) {
	plat := platform.New(2, 2)
	cl, err := sim.NewCluster(plat, sim.Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	s := cl.State()
	p := NewHEFTPerJobPolicy()
	p.Reset(s)
	var want []float64
	for i, a := range testArrivals(t, 21, 40, 3.0) {
		g, tt := a.Graph(), platform.TimingFor(a.Kind)
		if _, err := cl.AddJob(i, g, tt); err != nil {
			t.Fatal(err)
		}
		p.Decide(s, 0)
		want = append(want, sched.UpwardRanks(g, plat, tt)...)
		if len(p.rank) != len(want) {
			t.Fatalf("after job %d: %d ranks for %d tasks", i, len(p.rank), len(want))
		}
		for task := range want {
			if math.Float64bits(p.rank[task]) != math.Float64bits(want[task]) {
				t.Fatalf("after job %d: rank[%d] = %v, its job's own ranks give %v", i, task, p.rank[task], want[task])
			}
		}
	}
}

// TestStreamCostFlat makes "an arrival costs its own job, not the stream so
// far" a contract: the bytes a READYS stream allocates per job must not grow
// with the stream's length. TotalAlloc counts every allocation whether or not
// the collector has run, so the figure repeats for a fixed seed. With any
// per-arrival pass over the union DAG the ratio below is about 4; with the
// union and the State grown by append instead of reserved once, 1.34.
//
// The figure is bounded absolutely too, at ≈ 1.9 × what it reads: 2.34 kB per
// job at 600 jobs, of which the union graph, the State and the schedule's
// validation are most. It was 2.48 kB while every union task had a name of its
// own and the validator tabled the placements twice, 2.93 kB while the policy's per-task caches grew
// with the union rather than with the live jobs, 9.5 kB while the history grew by append and the
// encoder kept a sorted copy of the union's adjacency, and 16.6 kB while every
// arrival generated, validated and HEFT-scheduled a graph that Run now builds
// once per (family, size).
//
// And what the history keeps resident is bounded per union task, read at the
// first decision after the last arrival: ≈ 164 B, bounded at 185. It read
// 200 B while the cluster kept every finished job's edges and a "jN:" name
// per task, 253 B while the policy kept F̄ rows and window scratch for every union task
// and the State two ints of job constants per task, and 433 B while the
// encoder kept a sorted copy of the union's adjacency and every State slice
// kept up to a quarter of itself unused.
func TestStreamCostFlat(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 16, Seed: 4})
	cost := func(jobs int) (allocatedPerJob, residentPerTask float64) {
		arr := testArrivals(t, 77, jobs, 8.0)
		tasks := 0
		for _, a := range arr {
			tasks += taskgraph.NumTasksFor(a.Kind, a.Size)
		}
		pol := &liveAtTasks{Policy: core.NewPolicy(agent), tasks: tasks}
		base := liveHeap()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := runStream(t, func() sim.Policy { return pol }, arr, 78, nil)
		runtime.ReadMemStats(&after)
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		if pol.tasks != 0 {
			t.Fatalf("no decision after the last arrival's %d tasks", tasks)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(jobs), float64(pol.live-base) / float64(tasks)
	}
	short, _ := cost(150)
	long, resident := cost(600)
	t.Logf("allocated per job: %.0f B over 150 jobs, %.0f B over 600 jobs (ratio %.2f); resident %.0f B per union task",
		short, long, long/short, resident)
	if long > 1.15*short {
		t.Fatalf("allocation per job grows with stream length: %.0f B at 150 jobs, %.0f B at 600 (ratio %.2f > 1.15)",
			short, long, long/short)
	}
	if long > 4500 && !raceDetector { // the race runtime allocates ≈ 1.5 kB a job more
		t.Fatalf("%.0f B allocated per job over 600 jobs, contract is 4 500: something is built or re-copied per arrival again", long)
	}
	if resident > 185 {
		t.Fatalf("%.0f B resident per union task after the last arrival, contract is 185: the history is held twice or with slack, or the policy or the cluster keeps finished jobs, again", resident)
	}
}

// TestReplanHEFTCostFlat: a ReplanHEFT re-plan seeds and places the live
// jobs' tasks only, in a plan whose slices it keeps, so what a stream under it
// allocates per job — the re-plans' bytes and the flat rest TestStreamCostFlat
// holds — does not grow with the stream's length: ≈ 3.8 kB over 100 jobs,
// ≈ 4.2 kB over 400. Re-planning over the whole union, a fresh plan of every
// union task each time, allocated 121 kB and 461 kB (ratio 3.81).
func TestReplanHEFTCostFlat(t *testing.T) {
	cost := func(jobs int) float64 {
		arr := testArrivals(t, 77, jobs, 8.0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := runStream(t, func() sim.Policy { return sched.NewReplanHEFTPolicy() }, arr, 78, nil)
		runtime.ReadMemStats(&after)
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(jobs)
	}
	short, long := cost(100), cost(400)
	t.Logf("allocated per job: %.0f B over 100 jobs, %.0f B over 400 jobs (ratio %.2f)", short, long, long/short)
	if long > 1.5*short {
		t.Fatalf("a ReplanHEFT stream allocates %.0f B per job over 100 jobs, %.0f B over 400 (ratio %.2f > 1.5): a re-plan sizes or scans the whole union again",
			short, long, long/short)
	}
}

// raceDetector is set under -race, whose runtime allocates beside the program.
var raceDetector bool

// liveAtTasks reads the live heap once, at its first decision on a graph of
// tasks tasks: on a stream, when the last job has arrived and the cluster
// holds its whole history.
type liveAtTasks struct {
	sim.Policy
	tasks int
	live  uint64
}

func (p *liveAtTasks) Decide(s *sim.State, r int) int {
	if p.tasks > 0 && s.Graph.NumTasks() >= p.tasks {
		p.live, p.tasks = liveHeap(), 0
	}
	return p.Policy.Decide(s, r)
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
