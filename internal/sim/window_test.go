package sim_test

import (
	"math/rand"
	"slices"
	"testing"

	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestClusterLiveWindowBounded holds a long stream's memory to its live jobs.
// Over a 16 000-job Poisson stream under MCT, Reserved once for every
// arrival:
//   - the state's row slab never holds more than twice the most tasks live at
//     once plus one job's, however many tasks have been submitted;
//   - the placement log holds exactly the retired tasks, the tasks below
//     LiveFrom, and at the end every task;
//   - no arrival grows the union graph, the job table or the log.
//
// Graph.Reserve refuses a frozen graph, as Append does.
func TestClusterLiveWindowBounded(t *testing.T) {
	shapes := []*taskgraph.Graph{
		taskgraph.NewFrozenByKind(taskgraph.Cholesky, 3),
		taskgraph.NewFrozenByKind(taskgraph.LU, 3),
		taskgraph.NewFrozenByKind(taskgraph.QR, 2),
	}
	const jobs, meanGapMs = 16000, 40.0
	rng := rand.New(rand.NewSource(5))
	at := make([]float64, jobs)
	shape := make([]int, jobs)
	total, biggest, now := 0, 0, 0.0
	for j := range at {
		now += rng.ExpFloat64() * meanGapMs
		at[j], shape[j] = now, rng.Intn(len(shapes))
		total += shapes[shape[j]].NumTasks()
		biggest = max(biggest, shapes[shape[j]].NumTasks())
	}

	c, err := sim.NewCluster(platform.New(2, 2), sim.Options{Sigma: 0.2, Rng: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	c.Reserve(total, jobs)
	s := c.State()
	caps := func() []int {
		g := s.Graph
		_, room := s.Logged()
		return []int{cap(g.Tasks), cap(g.Succ), cap(g.Pred), cap(s.Jobs), room}
	}
	reserved := caps()
	pol := sched.MCTPolicy{}
	pol.Reset(s)
	peakLive := 0
	for j := range at {
		if err := c.RunUntil(pol, at[j]); err != nil {
			t.Fatal(err)
		}
		k := shape[j]
		if _, err := c.AddJob(j, shapes[k], platform.TimingFor(shapes[k].Kind)); err != nil {
			t.Fatal(err)
		}
		if got := caps(); !slices.Equal(got, reserved) {
			t.Fatalf("job %d grew a reserved slice: caps %v (graph tasks, succ, pred, jobs, log), reserved %v", j, got, reserved)
		}
		live := s.LiveFrom()
		if n, _ := s.Logged(); n != live {
			t.Fatalf("after job %d: the log holds %d records, %d tasks are retired", j, n, live)
		}
		peakLive = max(peakLive, s.Graph.NumTasks()-live)
		if held := s.RowsHeld(); held > 2*peakLive+biggest {
			t.Fatalf("after job %d: the slab holds %d rows, at most %d tasks were ever live", j, held, peakLive)
		}
	}
	if err := c.Drain(pol); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Logged(); n != total || s.NumDone != total {
		t.Fatalf("drained: %d of %d tasks done, %d logged", s.NumDone, total, n)
	}
	if got := caps(); !slices.Equal(got, reserved) {
		t.Fatalf("the drain grew a reserved slice: caps %v, reserved %v", got, reserved)
	}
	t.Logf("%d tasks submitted, at most %d live at an arrival, %d rows held", total, peakLive, s.RowsHeld())
	if peakLive >= total/100 {
		t.Fatalf("%d of %d tasks live at once: the stream no longer retires jobs as it runs", peakLive, total)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Reserve on a frozen graph did not panic")
		}
	}()
	shapes[0].Reserve(1)
}
