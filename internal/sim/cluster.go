package sim

// Cluster is the long-lived form of a simulated run: a persistent platform
// whose task graph GROWS over time as jobs arrive, instead of being fixed
// once per Simulate call. It is the substrate of internal/stream's online
// multi-tenant scheduling: every job's DAG is appended to one union graph
// with namespaced task IDs, the shared ready set spans all live jobs, and a
// single Policy (READYS, MCT, re-planning HEFT, ...) fills free resources from
// that union. A Cluster is a Runner whose run is cut at each arrival: its
// State is built as Simulate builds one, on an empty graph, and RunUntil and
// Drain are Simulate's event loop with a deadline. Duration noise, the ∅
// action, forced rounds and the full fault model (outages, deaths,
// degradation, kill/retain/re-time semantics) are therefore those of
// Simulate, and a cluster given one job at time 0 and drained schedules it
// exactly as Simulate does.
//
// The driving loop belongs to the caller: RunUntil advances simulated time to
// a deadline (typically the next job arrival), AddJob injects a DAG at the
// current instant, and Drain runs the remaining work to completion. The
// cluster draws its key from Options.Rng once, in NewCluster, and a task's
// duration draw is keyed by its union index and attempt, so a (seed,
// arrivals, fault plan) triple replays bit-identically.

import (
	"fmt"
	"math"
	"slices"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// Cluster is a persistent simulation state accepting streaming job arrivals.
type Cluster struct {
	rn Runner
	// res accumulates the decision counts and the kills across runs.
	res Result
}

// NewCluster builds an empty persistent cluster on the platform. Options are
// interpreted as in Simulate (Rng required; Faults replay against the
// cluster's whole lifetime; Tracer records every job's slices in one trace).
func NewCluster(plat platform.Platform, opt Options) (*Cluster, error) {
	c := new(Cluster)
	union := taskgraph.NewCustom(taskgraph.Random, [taskgraph.NumKernels]string{"k0", "k1", "k2", "k3"})
	if _, err := c.rn.start(union, plat, platform.Timing{}, opt); err != nil {
		return nil, err
	}
	return c, nil
}

// State exposes the cluster's scheduling state (read-only for policies).
func (c *Cluster) State() *State { return &c.rn.s }

// Now returns the current simulated time in ms.
func (c *Cluster) Now() float64 { return c.rn.s.Now }

// OnJobDone registers a job-completion hook, called with the job's number
// (AddJob's job) and its last task's completion time once that task's
// successors are released and the job's union rows are dropped. Must be set
// before running.
func (c *Cluster) OnJobDone(fn func(job int, at float64)) { c.rn.s.onJobDone = fn }

// Reserve makes room for n more tasks and jobs more jobs in the union graph,
// the job table and the placement log, so that up to jobs AddJobs of up to n
// tasks in all grow none of them. A caller that knows its arrivals reserves
// their sums once; without it each grows by append's factor and copies the
// history so far at every step. The per-task state needs no reservation: it
// is a row per live task (taskgraph.LiveRows), and a retired task leaves a
// 24-byte record in the log. What a job's tasks share — its number, first
// task, source graph and timing table — is one entry of the job table.
func (c *Cluster) Reserve(n, jobs int) {
	s := &c.rn.s
	s.Graph.Reserve(n)
	s.Jobs = slices.Grow(s.Jobs, jobs)
	s.log = slices.Grow(s.log, n)
}

// AddJob appends a job's DAG to the union graph at the current simulated
// time: task IDs are shifted by the current graph size, the job's roots enter
// the shared ready set, and GraphEpoch is bumped so adaptive policies replan.
// tt is the timing table of the job's DAG family (jobs of different families
// legitimately carry different tables). Returns the job's base task offset.
//
// The job arrives in bulk — one Graph.Append and a state row per task, with
// no growth of the graph or the job table within a Reserve. Its union tasks
// share g's name strings, and the job table keeps g as the job's source: an
// unfrozen g is validated and frozen here, a frozen one, validated when it
// was frozen, is taken as it is. A caller that keeps one frozen graph per job shape therefore pays for
// an arrival what copying its rows costs.
//
// When the job's last task completes, its union rows are dropped: no live
// task has an edge into a finished job, so nothing reads them again, and a
// stream holds the adjacency of its live jobs only. Its tasks' state rows
// retire once no older job is live (State.LiveFrom).
func (c *Cluster) AddJob(job int, g *taskgraph.Graph, tt platform.Timing) (int, error) {
	s := &c.rn.s
	if err := g.Freeze(); err != nil {
		return 0, fmt.Errorf("sim: job %d graph invalid: %w", job, err)
	}
	n := g.NumTasks()
	if n == 0 {
		return 0, fmt.Errorf("sim: job %d has no tasks", job)
	}
	// Intern the timing table (streams mix at most a handful of families).
	var timing *platform.Timing
	for _, have := range s.Timings {
		if *have == tt {
			timing = have
			break
		}
	}
	if timing == nil {
		timing = new(platform.Timing)
		*timing = tt
		s.Timings = append(s.Timings, timing)
	}
	base := s.Graph.Append(g)
	s.tasks.Cover(base+n, s.Graph.Room())
	jobIdx := int32(len(s.Jobs))
	s.Jobs = append(s.Jobs, Job{ID: job, Base: base, Graph: g, Timing: timing, left: n})
	for i, pred := range g.Pred {
		row := s.tasks.At(base + i)
		row.resource, row.predLeft, row.job = -1, int32(len(pred)), jobIdx
		if len(pred) == 0 {
			// The job's IDs lie above every earlier one and come ascending, so
			// appending keeps Ready sorted.
			s.Ready = append(s.Ready, base+i)
		}
	}
	s.GraphEpoch++
	if s.tracer != nil {
		traceArrival(s, job, base, n)
	}
	return base, nil
}

// jobTaskDone counts the completion of task t against its job. At the job's
// last completion it drops the job's union rows — AddJob appended the job
// whole, so no edge leaves them — retires the state rows below LiveFrom and
// calls the job-completion hook.
func (s *State) jobTaskDone(t int) {
	j := &s.Jobs[s.tasks.At(t).job]
	if j.left--; j.left > 0 {
		return
	}
	if err := s.Graph.DropEdges(j.Base, j.Base+j.Graph.NumTasks()); err != nil {
		panic(err)
	}
	s.retire()
	if s.onJobDone != nil {
		s.onJobDone(j.ID, s.Now)
	}
}

// retire moves every row below LiveFrom into the log, in task order. Every
// such task is done: its job and every earlier one have finished.
func (s *State) retire() {
	live := s.LiveFrom()
	for t := s.tasks.Live(); t < live; t++ {
		row := s.tasks.At(t)
		s.log = append(s.log, retired{start: row.start, end: row.end, resource: row.resource, job: row.job})
		s.retiredBusy[row.resource] += row.end - row.start
	}
	s.tasks.Retire(live)
}

// RunUntil advances the cluster to the given deadline: completions, fault
// events and scheduling decisions at or before until are processed, then Now
// is set to until. A completion tying with the deadline is processed
// (completions win ties, as with fault boundaries), so a job arriving at
// until sees fully current state. With nothing running and no fault event
// pending, the cluster waits for the deadline rather than force a start. A
// NaN deadline, which no event time exceeds, or one before Now is an error.
func (c *Cluster) RunUntil(pol Policy, until float64) error {
	if !(until >= c.rn.s.Now) {
		return fmt.Errorf("sim: deadline %v is not at or after the current time %v", until, c.rn.s.Now)
	}
	return c.rn.run(pol, &c.res, until)
}

// Drain runs every remaining task to completion and finalises the result
// (makespan = completion time of the last task, full union trace). It is
// Simulate's loop on the union: a forced round (MustAct) when every resource
// idles with nothing running and no fault pending, then the advance to the
// next event, and the same deadlock and all-dead errors.
func (c *Cluster) Drain(pol Policy) error {
	if err := c.RunUntil(pol, math.Inf(1)); err != nil {
		return err
	}
	if s := &c.rn.s; s.tracer != nil {
		finishTraceFaults(s)
	}
	return nil
}

// Result snapshots the cluster outcome in Simulate's Result shape: the union
// trace over every completed task, the cumulative decision counts and kill
// log, and Makespan = current simulated time. Call after Drain for the final
// schedule. A finished job's union rows are empty, so ValidateResult checks
// no precedence of a drained cluster's result: ValidateResultStrict with
// CheckOptions.Jobs = State().Jobs checks every job against its own graph.
func (c *Cluster) Result() Result {
	s := &c.rn.s
	res := c.res
	res.Makespan = s.Now
	res.Kills = append([]Kill(nil), c.res.Kills...)
	res.Trace = s.appendPlacements(make([]Placement, 0, s.NumDone))
	return res
}

// BusyTime returns the cumulative realised occupancy of each resource in ms
// up to Now: completed tasks, killed attempts up to their kill (the resource
// was genuinely occupied until then) and running tasks up to Now. The
// retired tasks' sums are kept as they retire; only the live rows are read.
// Both add in task order, so each resource's sum is the one a pass over every
// completed task in task order would give, bit for bit.
func (c *Cluster) BusyTime() []float64 {
	s := &c.rn.s
	out := slices.Clone(s.retiredBusy)
	for t := s.tasks.Live(); t < s.tasks.Len(); t++ {
		if row := s.tasks.At(t); row.done {
			out[row.resource] += row.end - row.start
		}
	}
	for _, k := range c.res.Kills {
		out[k.Resource] += k.At - k.Start
	}
	for r, t := range s.RunningTask {
		if t != NoTask {
			out[r] += s.Now - s.tasks.At(t).start
		}
	}
	return out
}

// MeanReadyDepth returns the time-averaged ready-set depth since t=0.
func (c *Cluster) MeanReadyDepth() float64 {
	s := &c.rn.s
	if s.Now <= 0 {
		return 0
	}
	return s.readyIntegral / s.Now
}
