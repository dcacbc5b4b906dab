package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// TestClusterReserveGrowsNothing: after Reserve of the whole arrival list, no
// AddJob grows the union graph, a per-task State slice or the job table, and
// an arrival costs its own job — its rows; its names are its graph's —
// whatever the history: the first and the last arrival of a shape allocate
// the same. Graph.Reserve refuses a frozen graph, as Append does.
func TestClusterReserveGrowsNothing(t *testing.T) {
	shapes := []*taskgraph.Graph{
		taskgraph.NewFrozenByKind(taskgraph.Cholesky, 3),
		taskgraph.NewFrozenByKind(taskgraph.LU, 2),
	}
	timings := []platform.Timing{platform.TimingFor(taskgraph.Cholesky), platform.TimingFor(taskgraph.LU)}
	const jobs = 10 // one-digit job IDs: every arrival's name prefix is as long
	total := 0
	for j := 0; j < jobs; j++ {
		total += shapes[j%len(shapes)].NumTasks()
	}
	// arrivals runs the jobs on a fresh cluster and returns the bytes each
	// arrival allocated.
	arrivals := func() []uint64 {
		c, err := NewCluster(platform.New(2, 2), Options{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		c.Reserve(total, jobs)
		s := &c.rn.s
		// The ready set and the timing tables are working sets, not history:
		// give them their room up front so that what is measured is the
		// arrival.
		s.Ready = make([]int, 0, total)
		s.Timings = make([]*platform.Timing, len(timings))
		for i := range timings {
			s.Timings[i] = &timings[i]
		}

		// The per-task slices, then the job table.
		caps := func() []int {
			g := s.Graph
			return []int{cap(g.Tasks), cap(g.Succ), cap(g.Pred), cap(s.Done), cap(s.Started), cap(s.StartTime),
				cap(s.EndTime), cap(s.Attempts), cap(s.AssignedTo), cap(s.JobIdx), cap(s.PredLeft), cap(s.Jobs)}
		}
		reserved := caps()
		for i, n := range reserved[:len(reserved)-1] {
			if n < total {
				t.Fatalf("slice %d reserved for %d tasks, want %d", i, n, total)
			}
		}
		if n := reserved[len(reserved)-1]; n < jobs {
			t.Fatalf("job table reserved for %d jobs, want %d", n, jobs)
		}
		windows := make([]uint64, jobs)
		for j := range windows {
			k := j % len(shapes)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.AddJob(j, shapes[k], timings[k]); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := caps(); !slices.Equal(got, reserved) {
				t.Fatalf("job %d grew a reserved slice: caps %v, reserved %v", j, got, reserved)
			}
			windows[j] = after.TotalAlloc - before.TotalAlloc
		}
		if s.Graph.NumTasks() != total {
			t.Fatalf("%d tasks after every arrival, want %d", s.Graph.NumTasks(), total)
		}
		return windows
	}
	// Each window is the least of three fresh clusters', so a stray runtime
	// allocation landing in one window of one run does not count.
	least := arrivals()
	for range 2 {
		for j, bytes := range arrivals() {
			least[j] = min(least[j], bytes)
		}
	}
	var first, last [2]uint64
	for j, bytes := range least {
		k := j % len(shapes)
		if j < len(shapes) {
			first[k] = bytes
		}
		last[k] = bytes
	}
	for k := range shapes {
		if first[k] != last[k] {
			t.Errorf("shape %d: the first arrival allocated %d B, the last %d B", k, first[k], last[k])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Reserve on a frozen graph did not panic")
		}
	}()
	shapes[0].Reserve(1)
}

// TestClusterRetiresFinishedJobs steps a cluster through twelve Cholesky and
// LU jobs that overlap in time, under an outage that kills work, one
// completion instant at a time. After every step and every arrival, a
// finished job's union rows are empty, a live job's rows hold its own
// graph's edges shifted by its Base, and the union validates; OnJobDone has
// fired exactly for the finished jobs, once each, at their last task's
// completion.
func TestClusterRetiresFinishedJobs(t *testing.T) {
	shapes := []*taskgraph.Graph{
		taskgraph.NewFrozenByKind(taskgraph.Cholesky, 3),
		taskgraph.NewFrozenByKind(taskgraph.LU, 3),
	}
	plan := &FaultPlan{Events: []FaultEvent{{Kind: FaultOutage, Resource: 3, At: 40, Duration: 20}}}
	c, err := NewCluster(platform.New(2, 2), Options{Sigma: 0.2, Rng: rand.New(rand.NewSource(3)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	s := c.State()
	doneAt := make(map[int]float64)
	c.OnJobDone(func(job int, at float64) {
		if _, twice := doneAt[job]; twice {
			t.Fatalf("job %d reported done twice", job)
		}
		doneAt[job] = at
	})
	// shifted compares a union row with its job graph's row shifted by base,
	// in any order: Append fills Pred rows by source task.
	shifted := func(got, want []int, base int) bool {
		w := make([]int, len(want))
		for i, v := range want {
			w[i] = base + v
		}
		g := slices.Clone(got)
		slices.Sort(g)
		slices.Sort(w)
		return slices.Equal(g, w)
	}
	mostLive := 0
	check := func(when string) {
		t.Helper()
		live := 0
		for _, j := range s.Jobs {
			n, last := j.Graph.NumTasks(), 0.0
			finished := true
			for i := 0; i < n; i++ {
				finished = finished && s.Done[j.Base+i]
				last = max(last, s.EndTime[j.Base+i])
			}
			if at, fired := doneAt[j.ID]; fired != finished || (fired && at != last) {
				t.Fatalf("%s: job %d finished %v, OnJobDone fired %v at %v (last end %v)", when, j.ID, finished, fired, at, last)
			}
			if !finished {
				live++
			}
			for i := 0; i < n; i++ {
				succ, pred := s.Graph.Succ[j.Base+i], s.Graph.Pred[j.Base+i]
				if finished && len(succ)+len(pred) > 0 {
					t.Fatalf("%s: finished job %d keeps the rows of its task %d", when, j.ID, i)
				}
				if !finished && (!shifted(succ, j.Graph.Succ[i], j.Base) || !shifted(pred, j.Graph.Pred[i], j.Base)) {
					t.Fatalf("%s: live job %d's task %d has rows %v/%v, its graph %v/%v at base %d",
						when, j.ID, i, succ, pred, j.Graph.Succ[i], j.Graph.Pred[i], j.Base)
				}
			}
		}
		mostLive = max(mostLive, live)
		if err := s.Graph.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	// step runs the cluster to each completion instant up to until, checking
	// after each.
	step := func(until float64) {
		t.Helper()
		for tc := earliestCompletion(s); tc <= until && !math.IsInf(tc, 1); tc = earliestCompletion(s) {
			if err := c.RunUntil(fifoPolicy{}, tc); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("completion at %.3f", tc))
		}
	}
	const jobs = 12
	for j := 0; j < jobs; j++ {
		at := float64(j) * 12
		step(at)
		if err := c.RunUntil(fifoPolicy{}, at); err != nil {
			t.Fatal(err)
		}
		g := shapes[j%len(shapes)]
		if _, err := c.AddJob(j, g, platform.TimingFor(g.Kind)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("arrival of job %d", j))
	}
	step(math.Inf(1))
	if err := c.Drain(fifoPolicy{}); err != nil {
		t.Fatal(err)
	}
	check("drained")
	if len(doneAt) != jobs || s.Graph.NumEdges() != 0 {
		t.Fatalf("drained: %d jobs reported done of %d, %d edges left", len(doneAt), jobs, s.Graph.NumEdges())
	}
	if kills := len(c.Result().Kills); mostLive < 2 || kills == 0 {
		t.Fatalf("at most %d jobs live at once and %d kills: the test no longer overlaps jobs or kills work", mostLive, kills)
	}
}
