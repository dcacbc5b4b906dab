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
// the phenomenon the paper studies.
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
	// Comm is the optional communication model (nil = free communication,
	// the paper's setting).
	Comm *platform.CommModel

	// Now is the current simulated time in ms.
	Now float64
	// Ready lists the ready tasks (all predecessors done, not started),
	// sorted by task ID.
	Ready []int
	// Running lists the currently executing tasks, sorted by task ID.
	Running []int

	// Status per task.
	Done      []bool
	Started   []bool
	StartTime []float64
	EndTime   []float64
	// AssignedTo[i] is the resource executing (or having executed) task i,
	// or -1.
	AssignedTo []int

	// BusyUntil[r] is the time at which resource r finishes its current
	// task (<= Now when free). RunningTask[r] is the task executing on r,
	// or -1.
	BusyUntil   []float64
	RunningTask []int

	// NumDone counts completed tasks.
	NumDone int
	// PredLeft[i] counts unfinished predecessors of task i.
	PredLeft []int

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
	// Attempts[i] counts killed executions of task i. FaultEpoch increments
	// whenever a fault event changes visible resource state — adaptive
	// policies key replans on it.
	Up         []bool
	Dead       []bool
	Speed      []float64
	Attempts   []int
	FaultEpoch int

	// Multi-job (streaming) state. Single-DAG runs leave all three nil/zero
	// and behave exactly as before.
	//
	// Timings, when non-empty, holds the distinct timing tables of the jobs
	// sharing the cluster, and TimingIdx[t] selects the table governing task
	// t (mixed DAG families have different per-kernel durations, so one
	// global table cannot describe a multi-family stream). JobID[t], when
	// non-nil, is the arrival-ordered job a task belongs to. GraphEpoch
	// increments whenever tasks are appended to the graph mid-run (a job
	// arrival); adaptive policies key replans on it like on FaultEpoch.
	Timings    []platform.Timing
	TimingIdx  []int
	JobID      []int
	GraphEpoch int

	// downUntil[r] is the engine-internal recovery time of an ongoing
	// outage (not exposed: policies must not see the future). deathAt[r]
	// records when r died, for tracing.
	downUntil []float64
	deathAt   []float64

	// free is the decision phases' scratch list of free resources, refilled
	// per phase; FreeResources hands callers their own slice instead.
	free []int

	// tracer, when set via Options.Tracer, receives task-start/task-end
	// events per resource lane (and comm transfers), plus outage / death /
	// kill fault spans. Invisible to policies.
	tracer *obs.Tracer

	// recorder, when set via Options.Recorder, receives cluster-level flight
	// events (arrivals, placements, kills, faults, resource up/down,
	// ready-depth samples). Invisible to policies; nil is a no-op.
	recorder *obs.FlightRecorder

	// onDone, when set (Cluster runs), is invoked after each task completes
	// — the hook streaming job bookkeeping hangs off. Invisible to policies.
	onDone func(task int, at float64)
}

// up reports current availability, tolerating hand-built States without
// fault bookkeeping.
func (s *State) up(r int) bool { return s.Up == nil || s.Up[r] }

// speed returns the current duration multiplier of r (1 when no fault state
// is attached).
func (s *State) speed(r int) float64 {
	if s.Speed == nil {
		return 1
	}
	return s.Speed[r]
}

// ResourceUp reports whether resource r is currently available: alive and
// not inside an outage. The engine never asks policies to fill unavailable
// resources, but resource-ranking heuristics (MCT, re-planning HEFT) must
// exclude them when estimating completion times.
func (s *State) ResourceUp(r int) bool { return s.up(r) }

// SpeedFactor returns the current duration multiplier of resource r.
func (s *State) SpeedFactor(r int) float64 { return s.speed(r) }

// IsFree reports whether resource r can start a task at s.Now: idle and
// currently available.
func (s *State) IsFree(r int) bool { return s.RunningTask[r] == NoTask && s.up(r) }

func (s *State) appendFree(dst []int) []int {
	for r := range s.RunningTask {
		if s.RunningTask[r] == NoTask && s.up(r) {
			dst = append(dst, r)
		}
	}
	return dst
}

// shuffledFree fills the state's scratch with the free resources, in
// ascending order so that the shuffle draws what it always drew,
// and shuffles it: the asking processor is uniform among the free ones. The
// slice is valid until the next phase.
func (s *State) shuffledFree(rng *rand.Rand) []int {
	free := s.appendFree(s.free[:0])
	s.free = free
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	return free
}

// TaskTiming returns the timing table governing task t: the per-job table in
// a multi-job stream, the problem-wide table otherwise.
func (s *State) TaskTiming(t int) platform.Timing {
	if len(s.Timings) > 0 {
		return s.Timings[s.TimingIdx[t]]
	}
	return s.Timing
}

// EstTaskDuration returns the expected duration of task t on resource r under
// r's current speed factor, resolved through t's own timing table.
func (s *State) EstTaskDuration(t, r int) float64 {
	return float64(s.TaskTiming(t).ExpectedDuration(s.Graph.Tasks[t].Kernel, s.Platform.Resources[r].Type) * s.speed(r))
}

// JobOf returns the job a task belongs to (0 for single-DAG runs).
func (s *State) JobOf(t int) int {
	if s.JobID == nil {
		return 0
	}
	return s.JobID[t]
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
		if v := tt.MaxExpected(); v > m {
			m = v
		}
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
	e := s.EstTaskDuration(t, r)
	d := s.StartTime[t] + e - s.Now
	if d < 0 {
		return 0
	}
	return d
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
	// Comm enables the communication-cost extension (nil = free, as in the
	// paper).
	Comm *platform.CommModel
	// Rng drives duration sampling and the random choice of the current
	// processor. Required.
	Rng *rand.Rand
	// Faults, if non-nil and non-empty, replays the fault plan against the
	// run: outages and deaths kill in-flight work, degrades re-time it.
	// Fault events consume no randomness from Rng, and an empty plan leaves
	// every result bit-identical to a fault-free run.
	Faults *FaultPlan
	// Tracer, if non-nil, records task-start/task-end events per resource
	// lane (and, with a communication model, per-transfer slices) that
	// export as a Chrome trace (obs.Tracer.WriteChromeTrace). Tracing never
	// consumes randomness, so a traced run is bit-identical to an untraced
	// one.
	Tracer *obs.Tracer
	// Recorder, if non-nil, is the cluster flight recorder: a bounded ring
	// of arrivals, placement decisions, kills, fault transitions and
	// ready-depth samples for post-mortem queries (readys-obs-check
	// -flight). Like Tracer it never consumes randomness — a recorded run
	// is bit-identical to an unrecorded one.
	Recorder *obs.FlightRecorder
}

// ErrDeadlock is returned when every resource idles while no task is running
// and tasks remain: simulated time can no longer advance.
var ErrDeadlock = errors.New("sim: all resources idle with no running task but tasks remain")

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
// with its per-task and per-resource slices, the ready and running lists, the
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
	if opt.Rng == nil {
		return Result{}, errors.New("sim: Options.Rng is required")
	}
	if err := opt.Faults.Validate(plat.Size()); err != nil {
		return Result{}, err
	}
	n := g.NumTasks()
	s := rn.newState(g, plat, timing, opt)
	if s.tracer != nil {
		setupTrace(s)
	}
	rn.tl.load(opt.Faults)
	pol.Reset(s)

	if cap(rn.trace) < n {
		rn.trace = make([]Placement, 0, n)
	}
	res := Result{Trace: rn.trace[:0], Kills: rn.kills[:0]}
	err := rn.run(s, pol, opt.Rng, &res)
	if err == nil {
		res.Makespan = s.Now
		for i := 0; i < n; i++ {
			res.Trace = append(res.Trace, Placement{Task: i, Resource: s.AssignedTo[i], Start: s.StartTime[i], End: s.EndTime[i]})
		}
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

// newState rebuilds the runner's State for a run: every field is either set
// here or zero, and the slices are the previous run's arrays, cleared, where
// those are large enough.
func (rn *Runner) newState(g *taskgraph.Graph, plat platform.Platform, timing platform.Timing, opt Options) *State {
	s := &rn.s
	n, m := g.NumTasks(), plat.Size()
	*s = State{
		Graph:       g,
		Platform:    plat,
		Timing:      timing,
		Sigma:       opt.Sigma,
		Comm:        opt.Comm,
		Ready:       s.Ready[:0],
		Running:     s.Running[:0],
		Done:        zeroed(s.Done, n),
		Started:     zeroed(s.Started, n),
		StartTime:   zeroed(s.StartTime, n),
		EndTime:     zeroed(s.EndTime, n),
		AssignedTo:  zeroed(s.AssignedTo, n),
		BusyUntil:   zeroed(s.BusyUntil, m),
		RunningTask: zeroed(s.RunningTask, m),
		PredLeft:    zeroed(s.PredLeft, n),
		Up:          zeroed(s.Up, m),
		Dead:        zeroed(s.Dead, m),
		Speed:       zeroed(s.Speed, m),
		Attempts:    zeroed(s.Attempts, n),
		downUntil:   zeroed(s.downUntil, m),
		deathAt:     zeroed(s.deathAt, m),
		free:        s.free[:0],
		tracer:      opt.Tracer,
		recorder:    opt.Recorder,
	}
	for i := range s.AssignedTo {
		s.AssignedTo[i] = -1
	}
	for r := range s.RunningTask {
		s.RunningTask[r] = NoTask
		s.Up[r] = true
		s.Speed[r] = 1
	}
	for i := 0; i < n; i++ {
		s.PredLeft[i] = len(g.Pred[i])
		if s.PredLeft[i] == 0 {
			s.Ready = append(s.Ready, i)
		}
	}
	return s
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

// run is the event loop: decision phases and the advance to the next
// completion or fault event, until every task is done.
func (rn *Runner) run(s *State, pol Policy, rng *rand.Rand, res *Result) error {
	n := s.Graph.NumTasks()
	faults := &rn.tl
	for s.NumDone < n {
		// Decision phase: fill free resources until the policy declines
		// every remaining one or no ready task is left.
		if err := decisionPhase(s, pol, rng, res, false); err != nil {
			return err
		}
		if s.NumDone == n {
			break
		}
		tc := earliestCompletion(s)
		tf := faults.nextTime()
		if math.IsInf(tc, 1) && math.IsInf(tf, 1) {
			// Nothing runs and no fault event can change the resource
			// state. If nothing is even alive, the remaining tasks can
			// never complete; otherwise re-ask in forced mode (∅
			// disallowed) until someone starts a task.
			if s.aliveCount() == 0 {
				return fmt.Errorf("%w: %d tasks remain", ErrAllResourcesDead, n-s.NumDone)
			}
			if err := decisionPhase(s, pol, rng, res, true); err != nil {
				return err
			}
			tc = earliestCompletion(s)
		}
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

// earliestCompletion returns the earliest running-task end time, or +Inf when
// nothing is running.
func earliestCompletion(s *State) float64 {
	earliest := math.Inf(1)
	for _, t := range s.Running {
		if s.EndTime[t] < earliest {
			earliest = s.EndTime[t]
		}
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
		if ev.end > s.downUntil[r] {
			s.downUntil[r] = ev.end
		}
		if s.tracer != nil {
			traceOutage(s, r, ev.at, ev.end-ev.at)
		}
		if s.Up[r] {
			s.Up[r] = false
			if s.recorder != nil {
				s.recorder.Record(obs.FlightEvent{T: ev.at, Kind: obs.FlightFault, Res: r, Note: FaultOutage.String()})
				s.recorder.Record(obs.FlightEvent{T: ev.at, Kind: obs.FlightResourceDown, Res: r})
			}
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
			if s.recorder != nil {
				s.recorder.Record(obs.FlightEvent{T: ev.at, Kind: obs.FlightResourceUp, Res: r, Val: s.Speed[r]})
			}
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
		if s.recorder != nil {
			s.recorder.Record(obs.FlightEvent{T: ev.at, Kind: obs.FlightFault, Res: r, Note: FaultDeath.String()})
			s.recorder.Record(obs.FlightEvent{T: ev.at, Kind: obs.FlightResourceDown, Res: r})
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
				s.EndTime[t] += float64(rem * (ratio - 1))
			}
		}
		if s.tracer != nil {
			traceDegrade(s, r, ev.at, ev.factor)
		}
		if s.recorder != nil {
			s.recorder.Record(obs.FlightEvent{T: ev.at, Kind: obs.FlightFault, Res: r, Val: ev.factor, Note: FaultDegrade.String()})
		}
		s.FaultEpoch++
	}
}

// recordDecision logs one placement into the flight recorder (no-op when
// recording is off).
func recordDecision(s *State, task, r int, note string) {
	if s.recorder == nil {
		return
	}
	s.recorder.Record(obs.FlightEvent{
		T: s.Now, Kind: obs.FlightDecision,
		Job: jobLabel(s, task), Task: s.Graph.Tasks[task].Name, Res: r, Note: note,
	})
}

// jobLabel names the stream job owning task t ("" in single-DAG runs).
func jobLabel(s *State, t int) string {
	if s.JobID == nil {
		return ""
	}
	return fmt.Sprintf("j%d", s.JobID[t])
}

// killRunning terminates the task executing on resource r (if any) at time
// at: the attempt is recorded, the task returns to the ready set, and its
// predecessors' outputs are retained so re-execution only repeats the killed
// work (plus fresh input transfers under the communication model).
func killRunning(s *State, r int, at float64, cause FaultKind, res *Result) {
	t := s.RunningTask[r]
	if t == NoTask {
		return
	}
	if s.tracer != nil {
		traceKill(s, t, r, at)
	}
	if s.recorder != nil {
		s.recorder.Record(obs.FlightEvent{
			T: at, Kind: obs.FlightKill,
			Job: jobLabel(s, t), Task: s.Graph.Tasks[t].Name, Res: r, Note: cause.String(),
		})
	}
	res.Kills = append(res.Kills, Kill{Task: t, Resource: r, Start: s.StartTime[t], At: at, Cause: cause})
	s.Attempts[t]++
	s.Running = removeSorted(s.Running, t)
	s.RunningTask[r] = NoTask
	s.BusyUntil[r] = at
	s.Started[t] = false
	s.AssignedTo[t] = -1
	s.StartTime[t] = 0
	s.EndTime[t] = 0
	s.Ready = insertSorted(s.Ready, t)
}

// decisionPhase asks the policy to fill free resources. Each free resource is
// asked at most once per phase (an ∅ answer parks it until the next event),
// and the "current processor" is drawn uniformly at random among the not-yet-
// asked free resources, as in §III-B.
//
// A forced phase is entered only when nothing is running, no fault event is
// pending, and every resource idled. It asks with MustAct set and ends at the
// first start, since time can advance again; a policy that still declines
// every resource deadlocks the system.
func decisionPhase(s *State, pol Policy, rng *rand.Rand, res *Result, forced bool) error {
	note := ""
	if forced {
		res.ForcedPhases++
		s.MustAct = true
		defer func() { s.MustAct = false }()
		note = "forced"
	}
	for _, r := range s.shuffledFree(rng) {
		if len(s.Ready) == 0 {
			break
		}
		task := pol.Decide(s, r)
		res.Decisions++
		if task == NoTask {
			res.IdleDecisions++
			continue
		}
		if err := startTask(s, task, r, rng); err != nil {
			return err
		}
		recordDecision(s, task, r, note)
		if forced {
			return nil
		}
	}
	if forced {
		return ErrDeadlock
	}
	return nil
}

// DataReadyTime returns the earliest time the inputs of a ready task are
// available on resource r: the max over predecessors of their completion time
// plus the transfer cost from their resource to r. Equals the predecessors'
// max end time when no communication model is set.
func (s *State) DataReadyTime(task, r int) float64 {
	var ready float64
	for _, p := range s.Graph.Pred[task] {
		at := s.EndTime[p] + s.Comm.Cost(s.AssignedTo[p], r)
		if at > ready {
			ready = at
		}
	}
	return ready
}

// startTask begins executing task on resource r at s.Now, sampling its actual
// duration (scaled by r's current speed factor).
func startTask(s *State, task, r int, rng *rand.Rand) error {
	if task < 0 || task >= s.Graph.NumTasks() {
		return fmt.Errorf("sim: policy chose invalid task %d", task)
	}
	if s.Started[task] {
		return fmt.Errorf("sim: policy chose already-started task %d", task)
	}
	if s.PredLeft[task] != 0 {
		return fmt.Errorf("sim: policy chose non-ready task %d (%d predecessors pending)", task, s.PredLeft[task])
	}
	if !s.IsFree(r) {
		return fmt.Errorf("sim: resource %d is busy or unavailable", r)
	}
	dur := float64(s.TaskTiming(task).SampleDuration(rng, s.Graph.Tasks[task].Kernel, s.Platform.Resources[r].Type, s.Sigma) * s.speed(r))
	// Communication extension: the computation stalls until every input tile
	// produced on another resource has arrived (transfers overlap but data
	// cannot be consumed before it lands).
	stall := s.DataReadyTime(task, r) - s.Now
	if stall < 0 {
		stall = 0
	}
	s.Started[task] = true
	s.StartTime[task] = s.Now
	s.EndTime[task] = s.Now + stall + dur
	s.AssignedTo[task] = r
	s.RunningTask[r] = task
	s.BusyUntil[r] = s.Now + dur
	s.Ready = removeSorted(s.Ready, task)
	s.Running = insertSorted(s.Running, task)
	if s.tracer != nil {
		traceStart(s, task, r)
	}
	return nil
}

// completeNext advances time to the earliest running-task completion and
// retires every task finishing at that instant.
func completeNext(s *State) {
	s.Now = earliestCompletion(s)
	// Retire all tasks completing now (ties happen with sigma = 0).
	for i := 0; i < len(s.Running); {
		t := s.Running[i]
		if s.EndTime[t] <= s.Now {
			s.Running = append(s.Running[:i], s.Running[i+1:]...)
			finishTask(s, t)
			continue
		}
		i++
	}
}

func finishTask(s *State, t int) {
	if s.tracer != nil {
		traceEnd(s, t)
	}
	s.Done[t] = true
	s.NumDone++
	r := s.AssignedTo[t]
	s.RunningTask[r] = NoTask
	for _, succ := range s.Graph.Succ[t] {
		s.PredLeft[succ]--
		if s.PredLeft[succ] == 0 {
			s.Ready = insertSorted(s.Ready, succ)
		}
	}
	if s.onDone != nil {
		s.onDone(t, s.Now)
	}
}

func insertSorted(xs []int, v int) []int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	xs = append(xs, 0)
	copy(xs[lo+1:], xs[lo:])
	xs[lo] = v
	return xs
}

func removeSorted(xs []int, v int) []int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(xs) || xs[lo] != v {
		panic(fmt.Sprintf("sim: %d not found in sorted slice", v))
	}
	return append(xs[:lo], xs[lo+1:]...)
}
