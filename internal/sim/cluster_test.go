package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

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
				finished = finished && s.Done(j.Base+i)
				last = max(last, s.EndTime(j.Base+i))
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
