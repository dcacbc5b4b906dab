package stream

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"readys/internal/core"
	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestStreamTraceContents cross-checks a faulted stream's trace against the
// run's own aggregates: one arrival instant per job, one kill instant per
// Result.Kills entry, and one task slice per attempt (every finished task
// once, every killed attempt once more), each named for its job and on a
// resource lane.
func TestStreamTraceContents(t *testing.T) {
	arr := testArrivals(t, 5, 8, 4.0)
	horizon := arr[len(arr)-1].At + 4000
	// Every resource also drops out for 1 ms just after the first arrival,
	// while the first job's roots run, so the kill counts are checked on real
	// kills.
	faults := sim.GeneratePlan(8, 4, sim.SpecForRate(4, horizon))
	for r := 0; r < 4; r++ {
		faults.Events = append(faults.Events, sim.FaultEvent{Kind: sim.FaultOutage, Resource: r, At: arr[0].At + 0.5, Duration: 1})
	}
	tr := obs.NewTracer(0)
	res, err := Run(sched.MCTPolicy{}, Config{
		Platform: platform.New(2, 2),
		Arrivals: arr,
		Sigma:    0.1,
		Faults:   faults,
		Rng:      rand.New(rand.NewSource(9)),
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills == 0 {
		t.Fatal("test plan killed no task")
	}

	tasks := 0
	for _, j := range res.Jobs {
		tasks += j.Tasks
	}
	var arrivals, kills, slices int
	for _, e := range tr.Events() {
		switch {
		case e.Cat == "arrival" && strings.HasPrefix(e.Name, "arrive j"):
			arrivals++
		case e.Name == "kill":
			kills++
		case e.Ph == obs.PhaseComplete && e.Cat == "task":
			slices++
			if job, _, ok := strings.Cut(e.Name, ":"); !ok || len(job) < 2 || job[0] != 'j' {
				t.Fatalf("task slice %q has no jN: job prefix", e.Name)
			}
			if e.TID < 0 || e.TID >= 4 {
				t.Fatalf("task slice %q on impossible lane %d", e.Name, e.TID)
			}
		}
	}
	if arrivals != len(arr) {
		t.Errorf("traced %d arrivals, want %d", arrivals, len(arr))
	}
	if kills != res.Kills {
		t.Errorf("traced %d kills, Result.Kills = %d", kills, res.Kills)
	}
	if slices != tasks+res.Kills {
		t.Errorf("traced %d task slices, want %d tasks + %d kills", slices, tasks, res.Kills)
	}
}

// TestStreamTraceKernelLabels: in a stream mixing Cholesky and LU jobs, every
// task slice's kernel arg names its kernel after its own job's family, not
// after the family of the stream's first job.
func TestStreamTraceKernelLabels(t *testing.T) {
	arr, err := PoissonProcess{
		Rate: 4, Jobs: 8, Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU}, Sizes: []int{2, 3},
	}.Generate(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(0)
	res, err := Run(sched.MCTPolicy{}, Config{
		Platform: platform.New(2, 2),
		Arrivals: arr,
		Sigma:    0.1,
		Rng:      rand.New(rand.NewSource(5)),
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	labelled := make(map[taskgraph.Kind]int)
	for _, e := range tr.Events() {
		if e.Ph != obs.PhaseComplete || e.Cat != "task" {
			continue
		}
		prefix, _, _ := strings.Cut(e.Name, ":")
		job, err := strconv.Atoi(strings.TrimPrefix(prefix, "j"))
		if err != nil || job < 0 || job >= len(res.Jobs) {
			t.Fatalf("task slice %q names no job of the stream", e.Name)
		}
		kind := res.Jobs[job].Kind
		task, _ := e.Args["task"].(int64)
		if want := taskgraph.KernelNamesFor(kind)[res.graph.Tasks[task].Kernel]; e.Args["kernel"] != want {
			t.Fatalf("task slice %q (task %d of a %v job) has kernel %v, want %q", e.Name, task, kind, e.Args["kernel"], want)
		}
		labelled[kind]++
	}
	if labelled[taskgraph.Cholesky] == 0 || labelled[taskgraph.LU] == 0 {
		t.Fatalf("task slices per family %v: the stream does not mix families", labelled)
	}
}

// TestStreamMetricsGoldenExposition pins the Prometheus text rendering of the
// stream's metric family end to end: exact names, HELP/TYPE lines, histogram
// bucket layout, and the deterministic values of a seeded run.
func TestStreamMetricsGoldenExposition(t *testing.T) {
	arr := testArrivals(t, 1, 6, 3.0)
	reg := obs.NewRegistry()
	res, err := Run(sched.MCTPolicy{}, Config{
		Platform: platform.New(2, 2),
		Arrivals: arr,
		Sigma:    0.1,
		Rng:      rand.New(rand.NewSource(42)),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	// Structural golden: every family with HELP and TYPE, counters matching
	// the run's own aggregates, histogram count matching the job count.
	for _, want := range []string{
		"# HELP readys_stream_jobs_arrived_total jobs injected into the cluster\n",
		"# TYPE readys_stream_jobs_arrived_total counter\n",
		"readys_stream_jobs_arrived_total 6\n",
		"readys_stream_jobs_completed_total 6\n",
		"# TYPE readys_stream_job_response_ms histogram\n",
		`readys_stream_job_response_ms_bucket{le="+Inf"} 6`,
		"readys_stream_job_response_ms_count 6\n",
		"# TYPE readys_stream_tasks_completed_total counter\n",
		"readys_stream_kills_total 0\n",
		"# TYPE readys_stream_utilization gauge\n",
		"# TYPE readys_stream_mean_ready_depth gauge\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, got)
		}
	}
	tasks := 0
	for _, j := range res.Jobs {
		tasks += j.Tasks
	}
	if want := "readys_stream_tasks_completed_total " + strconv.Itoa(tasks) + "\n"; !strings.Contains(got, want) {
		t.Errorf("exposition missing %q", want)
	}
}

// TestStreamDecideStats checks what readys-stream -metrics exports as the
// readys_decide_* counters after a READYS run: the policy counted every
// decision of the stream and every ∅ among them, ran the network at some and
// recomputed the window at some.
func TestStreamDecideStats(t *testing.T) {
	// Seed 4's untrained weights answer ∅ at about half the decisions here
	// (seed 1's at none).
	pol := core.NewPolicy(core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 16, Seed: 4}))
	res, err := Run(pol, Config{
		Platform: platform.New(2, 2),
		Arrivals: testArrivals(t, 1, 6, 3.0),
		Sigma:    0.1,
		Rng:      rand.New(rand.NewSource(42)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := pol.Stats; d.Decisions != res.Decisions || d.Idle != res.IdleDecisions || d.Idle == 0 || d.Forwards == 0 || d.Forwards > d.Decisions ||
		d.WindowRows < d.Decisions || d.Rebuilds == 0 || d.Rebuilds > d.Decisions {
		t.Errorf("decide stats %+v over %d decisions", d, res.Decisions)
	}
}
