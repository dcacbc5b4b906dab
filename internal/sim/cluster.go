package sim

// Cluster is the long-lived variant of the event engine: a persistent
// platform whose task graph GROWS over time as jobs arrive, instead of being
// fixed once per Simulate call. It is the substrate of internal/stream's
// online multi-tenant scheduling: every job's DAG is appended to one union
// graph with namespaced task IDs, the shared ready set spans all live jobs,
// and a single Policy (READYS, MCT, re-planning HEFT, ...) fills free
// resources from that union exactly as in the single-DAG engine. Duration
// noise, the ∅ action, forced rounds and the full fault model (outages,
// deaths, degradation, kill/retain/re-time semantics) behave identically —
// the decision and completion machinery is shared with Simulate, not
// reimplemented.
//
// The driving loop belongs to the caller: RunUntil advances simulated time to
// a deadline (typically the next job arrival), AddJob injects a DAG at the
// current instant, and Drain runs the remaining work to completion. All
// randomness comes from Options.Rng, so a (seed, arrivals, fault plan) triple
// replays bit-identically.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// Cluster is a persistent simulation state accepting streaming job arrivals.
type Cluster struct {
	s   *State
	opt Options
	tl  *faultTimeline
	res Result

	// readyIntegral accumulates ∫ |Ready| dt for queue-depth metrics.
	readyIntegral float64
	// busy accumulates realised occupancy per resource, including killed
	// attempts (the resource was genuinely occupied until the kill).
	busy []float64
}

// NewCluster builds an empty persistent cluster on the platform. Options are
// interpreted as in Simulate (Rng required; Faults replay against the
// cluster's whole lifetime; Tracer records every job's slices in one trace).
func NewCluster(plat platform.Platform, opt Options) (*Cluster, error) {
	if opt.Rng == nil {
		return nil, errors.New("sim: Options.Rng is required")
	}
	if err := opt.Faults.Validate(plat.Size()); err != nil {
		return nil, err
	}
	s := &State{
		Platform:    plat,
		Sigma:       opt.Sigma,
		Comm:        opt.Comm,
		Graph:       taskgraph.NewCustom(taskgraph.Random, [taskgraph.NumKernels]string{"k0", "k1", "k2", "k3"}),
		BusyUntil:   make([]float64, plat.Size()),
		RunningTask: make([]int, plat.Size()),
		Up:          make([]bool, plat.Size()),
		Dead:        make([]bool, plat.Size()),
		Speed:       make([]float64, plat.Size()),
		JobID:       []int{},
		downUntil:   make([]float64, plat.Size()),
		deathAt:     make([]float64, plat.Size()),
		tracer:      opt.Tracer,
	}
	for r := range s.RunningTask {
		s.RunningTask[r] = NoTask
		s.Up[r] = true
		s.Speed[r] = 1
	}
	c := &Cluster{s: s, opt: opt, tl: newFaultTimeline(opt.Faults), busy: make([]float64, plat.Size())}
	if s.tracer != nil {
		setupTrace(s)
	}
	s.onDone = func(t int, at float64) {
		c.busy[s.AssignedTo[t]] += at - s.StartTime[t]
	}
	return c, nil
}

// State exposes the cluster's scheduling state (read-only for policies).
func (c *Cluster) State() *State { return c.s }

// Now returns the current simulated time in ms.
func (c *Cluster) Now() float64 { return c.s.Now }

// OnTaskDone registers a completion hook (task ID, completion time); the
// stream layer uses it to detect job completions. Must be set before running.
func (c *Cluster) OnTaskDone(fn func(task int, at float64)) {
	inner := c.s.onDone
	c.s.onDone = func(t int, at float64) {
		inner(t, at)
		fn(t, at)
	}
}

// Reserve makes room for n more tasks in the union graph and in every per-task
// State slice, so that AddJobs of up to n tasks in all grow none of them. A
// caller that knows its arrivals reserves their sum once; without it each
// slice grows by append's factor and copies the history so far at every step.
func (c *Cluster) Reserve(n int) {
	s := c.s
	s.Graph.Reserve(n)
	s.Done = slices.Grow(s.Done, n)
	s.Started = slices.Grow(s.Started, n)
	s.StartTime = slices.Grow(s.StartTime, n)
	s.EndTime = slices.Grow(s.EndTime, n)
	s.Attempts = slices.Grow(s.Attempts, n)
	s.AssignedTo = slices.Grow(s.AssignedTo, n)
	s.TimingIdx = slices.Grow(s.TimingIdx, n)
	s.JobID = slices.Grow(s.JobID, n)
	s.PredLeft = slices.Grow(s.PredLeft, n)
}

// AddJob appends a job's DAG to the union graph at the current simulated
// time: task IDs are shifted by the current graph size, the job's roots enter
// the shared ready set, and GraphEpoch is bumped so adaptive policies replan.
// tt is the timing table of the job's DAG family (jobs of different families
// legitimately carry different tables). Returns the job's base task offset.
//
// The job arrives in bulk — one Graph.Append, at most one growth per State
// slice and none within a Reserve — and
// a frozen graph, validated when it was frozen, is not validated again: a
// caller that keeps one frozen graph per job shape pays for an arrival what
// copying it costs.
func (c *Cluster) AddJob(job int, g *taskgraph.Graph, tt platform.Timing) (int, error) {
	s := c.s
	if !g.Frozen() {
		if err := g.Validate(); err != nil {
			return 0, fmt.Errorf("sim: job %d graph invalid: %w", job, err)
		}
	}
	n := g.NumTasks()
	if n == 0 {
		return 0, fmt.Errorf("sim: job %d has no tasks", job)
	}
	if s.Graph.NumTasks() == 0 {
		// Cosmetic: label union kernels after the first job's family.
		s.Graph.KernelNames = g.KernelNames
	}
	// Intern the timing table (streams mix at most a handful of families).
	ti := -1
	for i, have := range s.Timings {
		if have == tt {
			ti = i
			break
		}
	}
	if ti == -1 {
		s.Timings = append(s.Timings, tt)
		ti = len(s.Timings) - 1
	}
	base := s.Graph.Append(g, "j"+strconv.Itoa(job)+":")
	s.Done = append(s.Done, make([]bool, n)...)
	s.Started = append(s.Started, make([]bool, n)...)
	s.StartTime = append(s.StartTime, make([]float64, n)...)
	s.EndTime = append(s.EndTime, make([]float64, n)...)
	s.Attempts = append(s.Attempts, make([]int, n)...)
	s.AssignedTo = appendN(s.AssignedTo, n, -1)
	s.TimingIdx = appendN(s.TimingIdx, n, ti)
	s.JobID = appendN(s.JobID, n, job)
	s.PredLeft = slices.Grow(s.PredLeft, n)
	for i, pred := range g.Pred {
		s.PredLeft = append(s.PredLeft, len(pred))
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

// appendN appends n copies of v, growing xs at most once.
func appendN[T any](xs []T, n int, v T) []T {
	xs = slices.Grow(xs, n)
	for i := 0; i < n; i++ {
		xs = append(xs, v)
	}
	return xs
}

// RunUntil advances the cluster to the given deadline (exclusive of any event
// strictly after it): completions, fault events and scheduling decisions with
// time ≤ until are processed, then Now is set to until. A completion tying
// with the deadline is processed (completions win ties, matching Simulate's
// fault-boundary rule), so a job arriving at `until` sees fully current
// state. With until = +Inf this drains every injected task, entering forced
// rounds (MustAct) when every resource idles with nothing running — exactly
// Simulate's deadlock/all-dead semantics.
func (c *Cluster) RunUntil(pol Policy, until float64) error {
	s := c.s
	for {
		if err := decisionPhase(s, pol, c.opt.Rng, &c.res, false); err != nil {
			return err
		}
		drained := s.NumDone == s.Graph.NumTasks()
		if drained && math.IsInf(until, 1) {
			// Draining stops at the last completion: later fault events
			// cannot affect finished work (Makespan = last task's end, as in
			// Simulate). With a finite deadline they still fire below, so an
			// idle cluster's resource state is current when a job arrives.
			return nil
		}
		tc := earliestCompletion(s)
		tf := c.tl.nextTime()
		next := math.Min(tc, tf)
		// next == +Inf must take this branch even when until is +Inf too
		// (Inf > Inf is false): with no event pending, the only ways forward
		// are parking at a finite deadline or a forced round.
		if next > until || math.IsInf(next, 1) {
			if !math.IsInf(until, 1) {
				c.account(until)
				s.Now = until
				return nil
			}
			// Nothing pending and no deadline: either the platform is gone
			// or every free resource declined while nothing runs — force a
			// start exactly as the single-DAG engine does.
			if s.aliveCount() == 0 {
				return fmt.Errorf("%w: %d tasks remain", ErrAllResourcesDead, s.Graph.NumTasks()-s.NumDone)
			}
			if err := decisionPhase(s, pol, c.opt.Rng, &c.res, true); err != nil {
				return err
			}
			continue
		}
		c.account(next)
		if tf < tc {
			s.Now = tf
			applyFaults(s, c.tl, &c.res)
			continue
		}
		completeNext(s)
	}
}

// Drain runs every remaining task to completion and finalises the result
// (makespan = completion time of the last task, full union trace).
func (c *Cluster) Drain(pol Policy) error {
	if err := c.RunUntil(pol, math.Inf(1)); err != nil {
		return err
	}
	if c.s.tracer != nil {
		finishTraceFaults(c.s)
	}
	return nil
}

// account integrates the ready-queue depth up to time t.
func (c *Cluster) account(t float64) {
	if dt := t - c.s.Now; dt > 0 {
		c.readyIntegral += float64(float64(len(c.s.Ready)) * dt)
	}
}

// Result snapshots the cluster outcome in Simulate's Result shape: the union
// trace over every completed task, the cumulative decision counts and kill
// log, and Makespan = current simulated time. Call after Drain for the final
// schedule (ValidateResult/ValidateResultStrict accept it against the union
// graph).
func (c *Cluster) Result() Result {
	s := c.s
	res := Result{
		Makespan:      s.Now,
		Decisions:     c.res.Decisions,
		IdleDecisions: c.res.IdleDecisions,
		ForcedPhases:  c.res.ForcedPhases,
		Kills:         append([]Kill(nil), c.res.Kills...),
		Trace:         make([]Placement, 0, s.NumDone),
	}
	for t := 0; t < s.Graph.NumTasks(); t++ {
		if s.Done[t] {
			res.Trace = append(res.Trace, Placement{Task: t, Resource: s.AssignedTo[t], Start: s.StartTime[t], End: s.EndTime[t]})
		}
	}
	return res
}

// BusyTime returns the cumulative realised occupancy of each resource in ms,
// including killed attempts (occupancy the cluster genuinely spent).
func (c *Cluster) BusyTime() []float64 {
	out := append([]float64(nil), c.busy...)
	s := c.s
	for r, t := range s.RunningTask {
		if t != NoTask {
			out[r] += s.Now - s.StartTime[t]
		}
	}
	return out
}

// MeanReadyDepth returns the time-averaged ready-set depth since t=0.
func (c *Cluster) MeanReadyDepth() float64 {
	if c.s.Now <= 0 {
		return 0
	}
	return c.readyIntegral / c.s.Now
}
