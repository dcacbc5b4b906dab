package sched

import (
	"math/rand"
	"slices"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestReplanHEFTReadsRetiredTasksAsDone: a stream's cluster retires the state
// rows of its finished jobs, and a retired task reads as done. ReplanHEFT
// re-plans at every completion, but the plan it holds when a job retires still
// points into that job — the running tasks it reserved — and StaticPolicy's
// cursor skips finished tasks lazily, by reading them. So at every decision
// whose latest plan still names a retired task at or after the cursor, the
// cursor is read first (its answer dropped; the re-plan resets it): it must
// pass the retired tasks and answer ∅ or a ready live task. After the drain,
// every task is retired and the accessors read its placement in the trace.
// The faulted stream must kill a task of the oldest live job while the job
// just below it is retired. Both streams validate strictly.
func TestReplanHEFTReadsRetiredTasksAsDone(t *testing.T) {
	var outages []sim.FaultEvent
	for at := 20.0; at < 12000; at += 37 {
		outages = append(outages, sim.FaultEvent{Kind: sim.FaultOutage, Resource: len(outages) % 4, At: at, Duration: 5})
	}
	for _, plan := range []*sim.FaultPlan{nil, {Events: outages}} {
		name := map[bool]string{true: "faulted", false: "fault-free"}[plan != nil]
		stale, killsAboveRetired := replanStreamOverRetiredJobs(t, name, plan)
		if stale < 20 {
			t.Errorf("%s: the cursor was read into a retired job at %d decisions: the stream no longer retires jobs under a live plan", name, stale)
		}
		if plan != nil && killsAboveRetired == 0 {
			t.Errorf("%s: no kill hit the oldest live job just above a retired one", name)
		}
	}
}

// replanStreamOverRetiredJobs runs a 300-job ReplanHEFT stream on a cluster
// under plan and returns the decisions at which the policy's cursor was read
// into a retired job and the kills of a task of the oldest live job whose
// predecessor job had retired.
func replanStreamOverRetiredJobs(t *testing.T, name string, plan *sim.FaultPlan) (stale, killsAboveRetired int) {
	t.Helper()
	shapes := []*taskgraph.Graph{
		taskgraph.NewFrozenByKind(taskgraph.Cholesky, 3),
		taskgraph.NewFrozenByKind(taskgraph.LU, 2),
		taskgraph.NewFrozenByKind(taskgraph.QR, 2),
	}
	plat := platform.New(2, 2)
	c, err := sim.NewCluster(plat, sim.Options{Sigma: 0.3, Rng: rand.New(rand.NewSource(8)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	s := c.State()
	const jobs = 300
	doneAt := make([]float64, jobs)
	c.OnJobDone(func(job int, at float64) { doneAt[job] = at })
	p := NewReplanHEFTPolicy()
	pol := probe{inner: p, before: func(s *sim.State, r int) {
		if p.cursor.Schedule == nil {
			return
		}
		live := s.LiveFrom()
		order := p.cursor.Schedule.Order[r][p.cursor.next[r]:]
		if !slices.ContainsFunc(order, func(task int) bool { return task < live }) {
			return
		}
		stale++
		for _, task := range order {
			if task < live && (!s.Done(task) || !s.Started(task) || s.PredLeft(task) != 0) {
				t.Fatalf("%s: retired task %d reads done %v, started %v, %d predecessors left", name, task, s.Done(task), s.Started(task), s.PredLeft(task))
			}
		}
		if got := p.cursor.Decide(s, r); got != sim.NoTask && (got < live || !slices.Contains(s.Ready, got)) {
			t.Fatalf("%s: the cursor answered task %d on a plan into retired tasks (live from %d, ready %v)", name, got, live, s.Ready)
		}
	}}
	pol.Reset(s)
	rng := rand.New(rand.NewSource(9))
	now := 0.0
	for j := range jobs {
		now += rng.ExpFloat64() * 40
		if err := c.RunUntil(pol, now); err != nil {
			t.Fatal(err)
		}
		g := shapes[rng.Intn(len(shapes))]
		if _, err := c.AddJob(j, g, platform.TimingFor(g.Kind)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(pol); err != nil {
		t.Fatal(err)
	}
	res := c.Result()
	if err := sim.ValidateResultStrict(s.Graph, res, sim.CheckOptions{Platform: plat, Sigma: 0.3, Faults: plan, Jobs: s.Jobs}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if s.LiveFrom() != s.Graph.NumTasks() {
		t.Fatalf("%s: drained, but live from task %d of %d", name, s.LiveFrom(), s.Graph.NumTasks())
	}
	for _, pl := range res.Trace {
		task := pl.Task
		if !s.Done(task) || s.StartTime(task) != pl.Start || s.EndTime(task) != pl.End || s.AssignedTo(task) != pl.Resource {
			t.Fatalf("%s: retired task %d reads %v on %d over [%v, %v], the trace %+v",
				name, task, s.Done(task), s.AssignedTo(task), s.StartTime(task), s.EndTime(task), pl)
		}
	}
	// A kill of a task of job k with jobs 0..k-1 all done before it: job k
	// was the oldest live job, and job k-1's rows had retired.
	for _, k := range res.Kills {
		if job := s.JobOf(k.Task); job > 0 && slices.Max(doneAt[:job]) < k.At {
			killsAboveRetired++
		}
	}
	t.Logf("%s: %d decisions read a plan into retired jobs, %d of %d kills hit the job just above a retired one",
		name, stale, killsAboveRetired, len(res.Kills))
	return stale, killsAboveRetired
}

// probe calls before ahead of each decision of inner.
type probe struct {
	inner  sim.Policy
	before func(s *sim.State, r int)
}

func (p probe) Reset(s *sim.State) { p.inner.Reset(s) }
func (p probe) Decide(s *sim.State, r int) int {
	p.before(s, r)
	return p.inner.Decide(s, r)
}
