// Package sim is the discrete-event simulator on which every scheduler in
// this repository — HEFT, MCT, random and the READYS agent — is evaluated,
// mirroring the simulation methodology of the paper (§V-B).
//
// The engine advances simulated time from task-completion event to
// task-completion event. Whenever at least one resource is free and at least
// one task is ready, it repeatedly picks a free resource ("the current
// processor", chosen uniformly at random as in §III-B) and asks the Policy to
// either start a ready task on it or leave it idle (the ∅ action) until the
// next event. Actual task durations are drawn from the platform's stochastic
// duration model at start time, so dynamic policies observe — and can react
// to — realised durations, while static policies suffer from drift, exactly
// the phenomenon the paper studies. Every draw is a pure function of the
// run's key (noise), so schedulers run on one seed see the same duration
// draw for every task attempt they all start.
//
// Beyond duration noise the engine can replay a deterministic FaultPlan
// (Options.Faults): transient resource outages, permanent deaths and
// mid-run speed degradation, with in-flight tasks killed and re-executed.
// With an empty plan the fault layer is bit-inert — every existing result
// is unchanged.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"

	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// NoTask is returned by a Policy to leave the current resource idle until the
// next completion event (the paper's ∅ action).
const NoTask = -1

// State is the complete runtime state visible to scheduling policies.
// Policies must treat it as read-only.
type State struct {
	Graph    *taskgraph.Graph
	Platform platform.Platform
	Timing   platform.Timing
	Sigma    float64

	// Now is the current simulated time in ms.
	Now float64
	// Ready lists the ready tasks (all predecessors done, not started),
	// sorted by task ID.
	Ready []int
	// Running lists the currently executing tasks, sorted by task ID.
	Running []int

	// BusyUntil[r] is the time at which resource r finishes its current
	// task (<= Now when free). RunningTask[r] is the task executing on r,
	// or -1.
	BusyUntil   []float64
	RunningTask []int

	// NumDone counts completed tasks.
	NumDone int

	// MustAct is set by the engine during a forced decision round: every
	// free resource declined while no task was running, so simulated time
	// cannot advance unless someone starts a task. Policies that support
	// the ∅ action must not idle when MustAct is true.
	MustAct bool

	// Fault-injection state (Options.Faults). Policies may read it; without
	// a fault plan every resource is Up, none Dead, all speeds 1 and the
	// epoch stays 0.
	//
	// Up[r] reports whether resource r is currently available (alive and
	// not inside an outage). Dead[r] reports permanent death. Speed[r] is
	// the current duration multiplier of r (1 = nominal, 2 = half speed).
	// FaultEpoch increments whenever a fault event changes visible resource
	// state — adaptive policies key replans on it.
	Up         []bool
	Dead       []bool
	Speed      []float64
	FaultEpoch int

	// Multi-job (streaming) state. Single-DAG runs leave all three nil/zero
	// and behave exactly as before.
	//
	// Timings, when non-empty, holds the distinct timing tables of the jobs
	// sharing the cluster (mixed DAG families have different per-kernel
	// durations, so one global table cannot describe a multi-family stream).
	// Jobs lists the jobs in arrival order, each once with what all its tasks
	// share: the job's number, first task, source graph and timing table.
	// GraphEpoch increments whenever tasks are appended to the graph mid-run
	// (a job arrival); adaptive policies key replans on it like on
	// FaultEpoch.
	Timings    []*platform.Timing
	Jobs       []Job
	GraphEpoch int

	// tasks holds the runtime state of every task from tasks.Live() on, one
	// row each; log holds a record for each task below, in task order (task
	// t's is log[t]). Policies read both through Done, Started, StartTime,
	// EndTime, AssignedTo and PredLeft. A single-DAG run retires nothing; a
	// cluster retires the rows below LiveFrom at each job completion
	// (retire), so its rows cover the live jobs and the jobs that arrived
	// after them, and a finished task costs its 24-byte record.
	// retiredBusy[r] sums the durations of the retired tasks run on resource
	// r, in task order, for Cluster.BusyTime.
	tasks       taskgraph.LiveRows[taskRow]
	log         []retired
	retiredBusy []float64

	// downUntil[r] is the engine-internal recovery time of an ongoing
	// outage (not exposed: policies must not see the future). deathAt[r]
	// records when r died, for tracing.
	downUntil []float64
	deathAt   []float64

	// free is the decision phases' scratch list of free resources, refilled
	// per phase; phase numbers the phases, which key their shuffles; noise
	// draws the run's durations and shuffles from its key.
	free  []int
	phase uint64
	noise noise

	// tracer, when set via Options.Tracer, receives one task slice per
	// attempt on its resource lane, plus outage / death / kill fault spans.
	// Invisible to policies.
	tracer *obs.Tracer

	// onJobDone, when set (Cluster runs), is invoked when a job's last task
	// completes — the hook streaming job bookkeeping hangs off. Invisible to
	// policies.
	onJobDone func(job int, at float64)

	// readyIntegral accumulates ∫ |Ready| dt from time 0 to Now, for
	// Cluster.MeanReadyDepth.
	readyIntegral float64
}

// taskRow is one task's runtime state: 32 bytes, held while the task is live.
type taskRow struct {
	// start and end bound the current or last attempt; 0 until it starts.
	start, end float64
	// resource executes (or executed) the task, -1 while it is not started;
	// predLeft counts its unfinished predecessors; job indexes its job in
	// State.Jobs (0 in a single-DAG run); attempt counts its killed attempts
	// (mod 2¹⁶), which key its duration draw.
	resource, predLeft, job int32
	done, started           bool
	attempt                 uint16
}

// retired is what a task leaves behind when its row retires: where and when
// its completed attempt ran, and its job's index in State.Jobs, in 24 bytes.
// The task is the record's index in State.log.
type retired struct {
	start, end    float64
	resource, job int32
}

// Done reports whether task t has completed. A retired task has.
func (s *State) Done(t int) bool { return t < s.tasks.Live() || s.tasks.At(t).done }

// Started reports whether task t is running or has completed: a killed
// attempt un-starts its task. A retired task has started.
func (s *State) Started(t int) bool { return t < s.tasks.Live() || s.tasks.At(t).started }

// StartTime returns when task t's current or completed attempt started, 0
// while it is not started.
func (s *State) StartTime(t int) float64 {
	if t < s.tasks.Live() {
		return s.log[t].start
	}
	return s.tasks.At(t).start
}

// EndTime returns when task t's current attempt ends — a drawn time while it
// runs — or its completed attempt ended; 0 while it is not started.
func (s *State) EndTime(t int) float64 {
	if t < s.tasks.Live() {
		return s.log[t].end
	}
	return s.tasks.At(t).end
}

// AssignedTo returns the resource executing (or having executed) task t, or
// -1 while it is not started.
func (s *State) AssignedTo(t int) int {
	if t < s.tasks.Live() {
		return int(s.log[t].resource)
	}
	return int(s.tasks.At(t).resource)
}

// PredLeft returns how many predecessors of task t have not completed.
func (s *State) PredLeft(t int) int {
	if t < s.tasks.Live() {
		return 0
	}
	return int(s.tasks.At(t).predLeft)
}

// jobIdx returns the index in Jobs of task t's job, in a multi-job State.
func (s *State) jobIdx(t int) int32 {
	if t < s.tasks.Live() {
		return s.log[t].job
	}
	return s.tasks.At(t).job
}

// Job is what a multi-job State keeps once per job. Its tasks are the union
// tasks Base, Base+1, …: union task Base+i is Graph's task i, with the same
// kernel, the same name string and the edges of Graph shifted by Base until
// the job finishes, none after (taskgraph.Graph.DropEdges). Graph is the
// source the job's union rows, its trace labels and the strict validator
// read.
type Job struct {
	ID     int              // the caller's number for the job (Cluster.AddJob's job)
	Base   int              // the job's first task
	Graph  *taskgraph.Graph // the frozen graph the job was appended from
	Timing *platform.Timing // the job's timing table, one of State.Timings

	left int // the job's tasks not yet done
}

// ResourceUp reports whether resource r is currently available: alive and
// not inside an outage (always, in a hand-built State without fault
// bookkeeping). The engine never asks policies to fill unavailable
// resources, but resource-ranking heuristics (MCT, re-planning HEFT) must
// exclude them when estimating completion times.
func (s *State) ResourceUp(r int) bool { return s.Up == nil || s.Up[r] }

// SpeedFactor returns the current duration multiplier of resource r (1 when
// no fault state is attached).
func (s *State) SpeedFactor(r int) float64 {
	if s.Speed == nil {
		return 1
	}
	return s.Speed[r]
}

// IsFree reports whether resource r can start a task at s.Now: idle and
// currently available.
func (s *State) IsFree(r int) bool { return s.RunningTask[r] == NoTask && s.ResourceUp(r) }

// shuffledFree fills the state's scratch with the free resources and
// shuffles it by the phase's keyed draw: the asking processor is uniform
// among the free ones. The slice is valid until the next phase.
func (s *State) shuffledFree() []int {
	free := s.free[:0]
	for r := range s.RunningTask {
		if s.IsFree(r) {
			free = append(free, r)
		}
	}
	s.free, s.phase = free, s.phase+1
	if len(free) > 1 {
		s.noise.at(1<<63|s.phase).Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	}
	return free
}

// noise makes a run's random quantities pure functions of its key, the first
// draw of Options.Rng: attempt a of task t draws its duration's z from stream
// t<<32 | a, and decision phase p shuffles the free resources from stream
// 1<<63 | p. Each draw re-seeds one PCG generator, so no draw depends on
// another, nor on the order in which a scheduler starts its tasks.
type noise struct {
	key uint64
	pcg *randv2.PCG
	rng *randv2.Rand
}

// at returns the generator seeded for stream id.
func (n *noise) at(id uint64) *randv2.Rand {
	if n.rng == nil {
		n.pcg = randv2.NewPCG(0, 0)
		n.rng = randv2.New(n.pcg)
	}
	n.pcg.Seed(n.key, id)
	return n.rng
}

// z is the standard normal draw of attempt a of task t.
func (n *noise) z(t int, a uint16) float64 { return n.at(uint64(t)<<32 | uint64(a)).NormFloat64() }

// TaskTiming returns the timing table governing task t: the per-job table in
// a multi-job stream, the problem-wide table otherwise.
func (s *State) TaskTiming(t int) *platform.Timing {
	if len(s.Timings) > 0 {
		return s.Jobs[s.jobIdx(t)].Timing
	}
	return &s.Timing
}

// EstTaskDuration returns the expected duration of task t on resource r under
// r's current speed factor, resolved through t's own timing table.
func (s *State) EstTaskDuration(t, r int) float64 {
	return float64(s.TaskTiming(t).ExpectedDuration(s.Graph.Tasks[t].Kernel, s.Platform.Resources[r].Type) * s.SpeedFactor(r))
}

// JobOf returns the job a task belongs to (0 for single-DAG runs).
func (s *State) JobOf(t int) int {
	if len(s.Jobs) == 0 {
		return 0
	}
	return s.Jobs[s.jobIdx(t)].ID
}

// LiveFrom returns the first task of the oldest job that still has a ready
// or running task, the graph's size when no job has, and 0 in a single-DAG
// run. A job's tasks lie above every earlier job's, and every unfinished task
// has a ready or running ancestor-or-self in its own job, so no task below
// LiveFrom is ready, running or reachable from one: a policy's per-task
// caches may drop it. Ready and Running are sorted, so this is O(1).
func (s *State) LiveFrom() int {
	if len(s.Jobs) == 0 {
		return 0
	}
	n := s.Graph.NumTasks()
	t := n
	if len(s.Ready) > 0 {
		t = s.Ready[0]
	}
	if len(s.Running) > 0 {
		t = min(t, s.Running[0])
	}
	if t == n {
		return n
	}
	return s.Jobs[s.tasks.At(t).job].Base
}

// MaxExpected returns the largest expected duration over every timing table
// attached to the state — the normaliser for time-valued features. Equals
// Timing.MaxExpected() in single-DAG runs.
func (s *State) MaxExpected() float64 {
	if len(s.Timings) == 0 {
		return s.Timing.MaxExpected()
	}
	var m float64
	for _, tt := range s.Timings {
		m = max(m, tt.MaxExpected())
	}
	return m
}

// EstTimeUntilFree returns the wait before resource r becomes available as a
// scheduler can estimate it: the running task's start time plus its
// *expected* duration (under r's current speed factor), clamped at zero when
// the task is overdue. This is the "estimated time at which it will be
// available" resource feature of §III-B; under duration noise it deviates
// from the truth, which is exactly the information imperfection dynamic
// schedulers must cope with.
func (s *State) EstTimeUntilFree(r int) float64 {
	t := s.RunningTask[r]
	if t == NoTask {
		return 0
	}
	return max(0, s.tasks.At(t).start+s.EstTaskDuration(t, r)-s.Now)
}

// Policy decides, each time a free resource must be filled, which ready task
// to start on it (or NoTask for ∅). Implementations may keep internal state;
// Reset is called once per episode before the first decision.
type Policy interface {
	// Reset prepares the policy for a fresh episode on the given problem.
	// It is called after the State has been initialised.
	Reset(s *State)
	// Decide returns a task from s.Ready to start on resource r, or NoTask.
	Decide(s *State, r int) int
}

// Placement records where and when one task executed.
type Placement struct {
	Task     int
	Resource int
	Start    float64
	End      float64
}

// Result is the outcome of one simulated schedule.
type Result struct {
	Makespan  float64
	Trace     []Placement
	Decisions int
	// IdleDecisions counts ∅ actions taken.
	IdleDecisions int
	// ForcedPhases counts the rounds in which every free resource had
	// answered ∅ with nothing running, so the engine asked again with MustAct
	// set.
	ForcedPhases int
	// Kills lists the task attempts terminated by fault events (empty
	// without a fault plan). The final, successful attempt of each task is
	// the one recorded in Trace.
	Kills []Kill
}

// Options configures a simulation run.
type Options struct {
	// Sigma is the duration noise level (§V-B).
	Sigma float64
	// Rng is where the run's randomness comes from: the run draws its key
	// from it once, at the start, and every duration and every choice of the
	// current processor is a pure function of that key. Required.
	Rng *rand.Rand
	// Faults, if non-nil and non-empty, replays the fault plan against the
	// run: outages and deaths kill in-flight work, degrades re-time it.
	// Fault events draw nothing, and an empty plan leaves every result
	// bit-identical to a fault-free run.
	Faults *FaultPlan
	// Tracer, if non-nil, records the schedule as a Chrome trace
	// (obs.Tracer.WriteChromeTrace): one complete slice per attempt on its
	// resource's lane, recorded when the attempt finishes or is killed, and
	// the fault spans.
	// Tracing never consumes randomness, so a traced run is bit-identical to
	// an untraced one.
	Tracer *obs.Tracer
}

// ErrDeadlock is returned when every resource idles while no task is running
// and tasks remain: simulated time can no longer advance.
var ErrDeadlock = errors.New("sim: all resources idle with no running task but tasks remain")

// ErrNonFiniteDuration is returned when a task draws a duration that is not a
// finite number — a noise level σ so large that σ·E overflows, or one that is
// not finite itself — which no simulated clock can advance past.
var ErrNonFiniteDuration = errors.New("sim: drawn task duration is not finite")

// ErrAllResourcesDead is returned when the fault plan permanently kills every
// resource before the DAG completes: the remaining tasks have no compatible
// survivor. Plans produced by GeneratePlan always spare one resource.
var ErrAllResourcesDead = errors.New("sim: every resource died before the DAG completed")

// Simulate executes the whole DAG under the policy and returns the schedule.
// The graph must be a valid DAG. An error is returned if the policy picks a
// non-ready task or deadlocks the system, or if a fault plan kills every
// resource before the DAG completes. It is one run on a Runner of its own; a
// caller that simulates repeatedly keeps a Runner instead.
func Simulate(g *taskgraph.Graph, plat platform.Platform, timing platform.Timing, pol Policy, opt Options) (Result, error) {
	return new(Runner).Simulate(g, plat, timing, pol, opt)
}

// Runner runs simulations one after another in memory it keeps: the State
// with its task rows and per-resource slices, the ready and running lists, the
// fault timeline, the trace and kill buffers and the validator's scratch.
// Every run starts from a State rebuilt from nothing but that memory, so a run
// on a used Runner is bit-identical to one on a new Runner — whatever the
// earlier runs' graph size, platform or fault plan, and whether or not they
// ended in an error.
//
// The Trace and Kills of a returned Result alias the Runner's buffers: they
// are valid until its next Simulate, and a caller that runs again first copies
// what it still needs. A Runner serves one goroutine at a time; the zero value
// is ready to use.
type Runner struct {
	s     State
	tl    faultTimeline
	trace []Placement
	kills []Kill

	// Validate's scratch: the placements indexed by task, the same bucketed
	// by resource, and the bucket boundaries.
	byTask, perRes []Placement
	next           []int
}

// Simulate is sim.Simulate on the runner's memory.
func (rn *Runner) Simulate(g *taskgraph.Graph, plat platform.Platform, timing platform.Timing, pol Policy, opt Options) (Result, error) {
	s, err := rn.start(g, plat, timing, opt)
	if err != nil {
		return Result{}, err
	}
	pol.Reset(s)

	if n := g.NumTasks(); cap(rn.trace) < n {
		rn.trace = make([]Placement, 0, n)
	}
	res := Result{Trace: rn.trace[:0], Kills: rn.kills[:0]}
	err = rn.run(pol, &res, math.Inf(1))
	if err == nil {
		res.Makespan = s.Now
		res.Trace = s.appendPlacements(res.Trace)
		if s.tracer != nil {
			finishTraceFaults(s)
		}
	}
	rn.kills = res.Kills
	if len(res.Kills) == 0 {
		res.Kills = nil // as a run without kills has always reported them
	}
	return res, err
}

// start checks the options, rebuilds the runner's State and fault timeline
// for a run of g and draws the run's key. Simulate and NewCluster both begin
// here.
func (rn *Runner) start(g *taskgraph.Graph, plat platform.Platform, timing platform.Timing, opt Options) (*State, error) {
	if opt.Rng == nil {
		return nil, errors.New("sim: Options.Rng is required")
	}
	if err := opt.Faults.Validate(plat.Size()); err != nil {
		return nil, err
	}
	s := &rn.s
	s.reset(g, plat, timing, opt.Sigma, opt.Tracer)
	s.noise.key = opt.Rng.Uint64()
	rn.tl.load(opt.Faults)
	return s, nil
}

// NewState returns the state a fault-free run of g starts from — time 0,
// every root ready, every resource up and idle, no decision taken — as
// Simulate hands it to a policy's Reset. It is for reading a policy or an
// encoder outside a run; a run builds its own.
func NewState(g *taskgraph.Graph, plat platform.Platform, timing platform.Timing, sigma float64) *State {
	s := new(State)
	s.reset(g, plat, timing, sigma, nil)
	return s
}

// reset rebuilds s for a run of g: every field is either set here or zero,
// and the slices and the row slab are the previous run's arrays, cleared,
// where those are large enough.
func (s *State) reset(g *taskgraph.Graph, plat platform.Platform, timing platform.Timing, sigma float64, tracer *obs.Tracer) {
	n, m := g.NumTasks(), plat.Size()
	tasks := s.tasks
	tasks.Reset()
	tasks.Cover(n, n)
	*s = State{
		Graph:       g,
		Platform:    plat,
		Timing:      timing,
		Sigma:       sigma,
		Ready:       s.Ready[:0],
		Running:     s.Running[:0],
		BusyUntil:   zeroed(s.BusyUntil, m),
		RunningTask: zeroed(s.RunningTask, m),
		Up:          zeroed(s.Up, m),
		Dead:        zeroed(s.Dead, m),
		Speed:       zeroed(s.Speed, m),
		tasks:       tasks,
		log:         s.log[:0],
		retiredBusy: zeroed(s.retiredBusy, m),
		downUntil:   zeroed(s.downUntil, m),
		deathAt:     zeroed(s.deathAt, m),
		free:        s.free[:0],
		noise:       s.noise,
		tracer:      tracer,
	}
	for r := range s.RunningTask {
		s.RunningTask[r] = NoTask
		s.Up[r] = true
		s.Speed[r] = 1
	}
	for t := 0; t < n; t++ {
		row := s.tasks.At(t)
		row.resource, row.predLeft = -1, int32(len(g.Pred[t]))
		if row.predLeft == 0 {
			s.Ready = append(s.Ready, t)
		}
	}
	if s.tracer != nil {
		setupTrace(s)
	}
}

// zeroed returns n zero values in buf's array when it is large enough, in a
// new one otherwise.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// run is the event loop of every simulated run: decision phases and the
// advance to the next completion or fault event. With until = +Inf it runs
// until every task is done; with a finite until it processes every event at
// or before until, then parks Now at until, so that a job arriving then sees
// current state. Only with until = +Inf can it force a start: with nothing
// running and no fault event pending, an arrival at the deadline is the next
// event.
func (rn *Runner) run(pol Policy, res *Result, until float64) error {
	s, faults := &rn.s, &rn.tl
	drain := math.IsInf(until, 1)
	for !drain || s.NumDone < s.Graph.NumTasks() {
		// Decision phase: fill free resources until the policy declines
		// every remaining one or no ready task is left.
		if err := decisionPhase(s, pol, res, false); err != nil {
			return err
		}
		tc := earliestCompletion(s)
		tf := faults.nextTime()
		if drain && math.IsInf(tc, 1) && math.IsInf(tf, 1) {
			// Nothing runs and no fault event can change the resource
			// state. If nothing is even alive, the remaining tasks can
			// never complete; otherwise re-ask in forced mode (∅
			// disallowed) until someone starts a task, then advance to
			// the next event: an ∅ answer parks a resource until then.
			if s.aliveCount() == 0 {
				return fmt.Errorf("%w: %d tasks remain", ErrAllResourcesDead, s.Graph.NumTasks()-s.NumDone)
			}
			if err := decisionPhase(s, pol, res, true); err != nil {
				return err
			}
			tc = earliestCompletion(s)
		}
		next := min(tc, tf)
		if next > until {
			s.account(until)
			s.Now = until
			return nil
		}
		s.account(next)
		// Advance to the earlier of the next completion and the next fault
		// event; completions win ties so a task finishing exactly at an
		// outage boundary is not killed retroactively.
		if tf < tc {
			s.Now = tf
			applyFaults(s, faults, res)
			continue
		}
		completeNext(s)
	}
	return nil
}

// account integrates the ready-set depth from Now up to time t.
func (s *State) account(t float64) {
	if dt := t - s.Now; dt > 0 {
		s.readyIntegral += float64(float64(len(s.Ready)) * dt)
	}
}

// appendPlacements appends the placement of every completed task, in task
// order: the retired tasks' from the log, then the live rows'.
func (s *State) appendPlacements(dst []Placement) []Placement {
	for t, rec := range s.log {
		dst = append(dst, Placement{Task: t, Resource: int(rec.resource), Start: rec.start, End: rec.end})
	}
	for t := s.tasks.Live(); t < s.tasks.Len(); t++ {
		if row := s.tasks.At(t); row.done {
			dst = append(dst, Placement{Task: t, Resource: int(row.resource), Start: row.start, End: row.end})
		}
	}
	return dst
}

// earliestCompletion returns the earliest running-task end time, or +Inf when
// nothing is running.
func earliestCompletion(s *State) float64 {
	earliest := math.Inf(1)
	for _, t := range s.Running {
		earliest = min(earliest, s.tasks.At(t).end)
	}
	return earliest
}

// aliveCount returns the number of resources that have not died permanently.
func (s *State) aliveCount() int {
	var n int
	for r := range s.Dead {
		if !s.Dead[r] {
			n++
		}
	}
	return n
}

// applyFaults applies every timeline event scheduled at s.Now.
func applyFaults(s *State, tl *faultTimeline, res *Result) {
	for tl.next < len(tl.events) && tl.events[tl.next].at <= s.Now {
		applyFaultEvent(s, tl.events[tl.next], res)
		tl.next++
	}
}

// applyFaultEvent transitions resource state for one timeline event, killing
// in-flight work and re-timing remaining work as required.
func applyFaultEvent(s *State, ev tlEvent, res *Result) {
	r := ev.resource
	switch ev.kind {
	case tlOutage:
		if s.Dead[r] {
			return
		}
		s.downUntil[r] = max(s.downUntil[r], ev.end)
		if s.tracer != nil {
			traceOutage(s, r, ev.at, ev.end-ev.at)
		}
		if s.Up[r] {
			s.Up[r] = false
			killRunning(s, r, ev.at, FaultOutage, res)
			s.FaultEpoch++
		}
	case tlRecover:
		if s.Dead[r] || s.Up[r] {
			return
		}
		// A longer overlapping outage may still hold the resource down;
		// only the recovery matching the latest outage end releases it.
		if ev.at >= s.downUntil[r] {
			s.Up[r] = true
			s.FaultEpoch++
		}
	case tlDeath:
		if s.Dead[r] {
			return
		}
		s.Dead[r] = true
		s.deathAt[r] = ev.at
		s.downUntil[r] = math.Inf(1)
		if s.tracer != nil {
			traceDeath(s, r, ev.at)
		}
		s.Up[r] = false
		killRunning(s, r, ev.at, FaultDeath, res)
		s.FaultEpoch++
	case tlDegrade:
		if s.Dead[r] {
			return
		}
		old := s.Speed[r]
		if ev.factor == old {
			return
		}
		s.Speed[r] = ev.factor
		// Re-time the remaining *compute* of the in-flight task by the
		// factor ratio: work already done stays done, and the data stall
		// (network, not compute) is unaffected. BusyUntil tracks the pure
		// compute span, so its remainder is exactly what stretches;
		// EndTime shifts by the same delta.
		if t := s.RunningTask[r]; t != NoTask {
			ratio := ev.factor / old
			if rem := s.BusyUntil[r] - ev.at; rem > 0 {
				s.BusyUntil[r] = ev.at + float64(rem*ratio)
				s.tasks.At(t).end += float64(rem * (ratio - 1))
			}
		}
		if s.tracer != nil {
			traceDegrade(s, r, ev.at, ev.factor)
		}
		s.FaultEpoch++
	}
}

// killRunning terminates the task executing on resource r (if any) at time
// at: the attempt is recorded, the task returns to the ready set with its
// next attempt's draw, and its predecessors' outputs are retained so
// re-execution only repeats the killed work.
func killRunning(s *State, r int, at float64, cause FaultKind, res *Result) {
	t := s.RunningTask[r]
	if t == NoTask {
		return
	}
	if s.tracer != nil {
		traceKill(s, t, r, at, cause)
	}
	row := s.tasks.At(t)
	res.Kills = append(res.Kills, Kill{Task: t, Resource: r, Start: row.start, At: at, Cause: cause})
	s.Running = removeSorted(s.Running, t)
	s.RunningTask[r] = NoTask
	s.BusyUntil[r] = at
	row.started, row.resource, row.start, row.end = false, -1, 0, 0
	row.attempt++
	s.Ready = insertSorted(s.Ready, t)
}

// decisionPhase asks the policy to fill free resources. Each free resource is
// asked at most once per phase (an ∅ answer parks it until the next event),
// and the "current processor" is drawn uniformly at random among the not-yet-
// asked free resources, as in §III-B, by the phase's keyed shuffle.
//
// A forced phase is entered only when nothing is running, no fault event is
// pending, and every resource idled. It asks with MustAct set and ends at the
// first start, since time can advance again; a policy that still declines
// every resource deadlocks the system.
func decisionPhase(s *State, pol Policy, res *Result, forced bool) error {
	if forced {
		res.ForcedPhases++
		s.MustAct = true
		defer func() { s.MustAct = false }()
	}
	for _, r := range s.shuffledFree() {
		if len(s.Ready) == 0 {
			break
		}
		task := pol.Decide(s, r)
		res.Decisions++
		if task == NoTask {
			res.IdleDecisions++
			continue
		}
		if err := startTask(s, task, r); err != nil {
			return err
		}
		if forced {
			return nil
		}
	}
	if forced {
		return ErrDeadlock
	}
	return nil
}

// startTask begins executing task on resource r at s.Now, sampling its actual
// duration from the attempt's keyed draw (scaled by r's current speed
// factor).
func startTask(s *State, task, r int) error {
	if task < 0 || task >= s.Graph.NumTasks() {
		return fmt.Errorf("sim: policy chose invalid task %d", task)
	}
	if s.Started(task) {
		return fmt.Errorf("sim: policy chose already-started task %d", task)
	}
	row := s.tasks.At(task)
	if row.predLeft != 0 {
		return fmt.Errorf("sim: policy chose non-ready task %d (%d predecessors pending)", task, row.predLeft)
	}
	if !s.IsFree(r) {
		return fmt.Errorf("sim: resource %d is busy or unavailable", r)
	}
	dur := float64(s.TaskTiming(task).SampleDuration(s.noise.z(task, row.attempt), s.Graph.Tasks[task].Kernel, s.Platform.Resources[r].Type, s.Sigma) * s.SpeedFactor(r))
	if math.IsInf(dur, 0) || math.IsNaN(dur) {
		return fmt.Errorf("%w: task %d on resource %d drew %g at sigma %g", ErrNonFiniteDuration, task, r, dur, s.Sigma)
	}
	row.started, row.start, row.end, row.resource = true, s.Now, s.Now+dur, int32(r)
	s.RunningTask[r] = task
	s.BusyUntil[r] = s.Now + dur
	s.Ready = removeSorted(s.Ready, task)
	s.Running = insertSorted(s.Running, task)
	return nil
}

// completeNext advances time to the earliest running-task completion and
// retires every task finishing at that instant.
func completeNext(s *State) {
	s.Now = earliestCompletion(s)
	// Retire all tasks completing now (ties happen with sigma = 0).
	for i := 0; i < len(s.Running); {
		t := s.Running[i]
		if s.tasks.At(t).end <= s.Now {
			s.Running = append(s.Running[:i], s.Running[i+1:]...)
			finishTask(s, t)
			continue
		}
		i++
	}
}

func finishTask(s *State, t int) {
	row := s.tasks.At(t)
	r := int(row.resource)
	if s.tracer != nil {
		traceAttempt(s, t, r, row.end)
	}
	row.done = true
	s.NumDone++
	s.RunningTask[r] = NoTask
	for _, succ := range s.Graph.Succ[t] {
		next := s.tasks.At(succ)
		if next.predLeft--; next.predLeft == 0 {
			s.Ready = insertSorted(s.Ready, succ)
		}
	}
	if len(s.Jobs) > 0 {
		s.jobTaskDone(t)
	}
}

func insertSorted(xs []int, v int) []int {
	i, _ := slices.BinarySearch(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func removeSorted(xs []int, v int) []int {
	i, found := slices.BinarySearch(xs, v)
	if !found {
		panic(fmt.Sprintf("sim: %d not found in sorted slice", v))
	}
	return append(xs[:i], xs[i+1:]...)
}
