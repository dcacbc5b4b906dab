package sched

import (
	"math"

	"readys/internal/sim"
)

// ReplanHEFTPolicy is an adaptive variant of HEFT that answers the question
// the paper raises implicitly: how much of HEFT's noise fragility comes from
// the *staticness* of its plan rather than from its priorities? Each time the
// simulator asks for a decision after the world has drifted (a task finished
// earlier or later than planned), the policy recomputes a full HEFT schedule
// over the remaining tasks — treating running tasks as resource reservations
// until their estimated completion — and dispatches according to the fresh
// plan. It is far too expensive for a real runtime (O(n²) per re-plan); here
// it serves as an upper-bound reference for plan-based scheduling under
// uncertainty.
type ReplanHEFTPolicy struct {
	// plan is the latest plan. Its slices are kept across re-plans and grow
	// with a stream's union; Rank is append-only within a run.
	plan        HEFTSchedule
	cursor      StaticPolicy
	doneAtPlan  int
	epochAtPlan int
	graphAtPlan int
}

// NewReplanHEFTPolicy returns a fresh re-planning policy.
func NewReplanHEFTPolicy() *ReplanHEFTPolicy { return &ReplanHEFTPolicy{} }

// Reset implements sim.Policy.
func (p *ReplanHEFTPolicy) Reset(*sim.State) {
	p.plan.Rank = p.plan.Rank[:0]
	p.cursor.Schedule = nil
}

// Decide implements sim.Policy: it walks the latest plan as a StaticPolicy,
// forced-round fallback included.
func (p *ReplanHEFTPolicy) Decide(s *sim.State, r int) int {
	// Re-plan whenever the world drifted: a task completed, a fault
	// event changed resource state (outage, recovery, death, degrade), or
	// a streaming job arrival grew the graph — keying only on NumDone
	// would keep dispatching onto dead resources, never reclaim killed
	// work, and never see newly arrived jobs.
	if p.cursor.Schedule == nil || s.NumDone != p.doneAtPlan || s.FaultEpoch != p.epochAtPlan || s.GraphEpoch != p.graphAtPlan {
		p.replan(s)
	}
	return p.cursor.Decide(s, r)
}

// replan recomputes HEFT over the unfinished, unstarted tasks. Completed
// tasks contribute their realised end times as release dates; running tasks
// reserve their resource from now until their estimated completion, and
// nothing starts before now. Only tasks from s.LiveFrom() on are seeded and
// placed: every earlier job is finished, and no edge crosses a job, so its
// tasks are no task's predecessors and no resource's reservations.
func (p *ReplanHEFTPolicy) replan(s *sim.State) {
	g := s.Graph
	n, lo := g.NumTasks(), s.LiveFrom()
	plan := &p.plan
	plan.Rank = AppendUpwardRanks(plan.Rank, g, s.Platform, s.TaskTiming)
	plan.Assignment = resize(plan.Assignment, n)
	plan.ProjStart = resize(plan.ProjStart, n)
	plan.ProjEnd = resize(plan.ProjEnd, n)
	plan.Order = resize(plan.Order, s.Platform.Size())
	for r := range plan.Order {
		plan.Order[r] = plan.Order[r][:0]
	}
	plan.Makespan = 0
	for t := lo; t < n; t++ {
		plan.Assignment[t], plan.ProjStart[t], plan.ProjEnd[t] = -1, 0, 0
		if s.Done(t) {
			plan.Assignment[t] = s.AssignedTo(t)
			plan.ProjEnd[t] = s.EndTime(t)
		} else if s.Started(t) {
			r := s.AssignedTo(t)
			plan.Assignment[t] = r
			plan.ProjStart[t] = s.Now
			plan.ProjEnd[t] = s.Now + s.EstTimeUntilFree(r)
			plan.Order[r] = plan.insert(plan.Order[r], t)
		}
	}
	// Only place on currently available resources, at their current speed;
	// a recovery or degrade bumps FaultEpoch and triggers a fresh plan. At
	// least one resource is up whenever the engine asks for a decision, so
	// every task finds one.
	plan.place(g, lo, s.Now, func(t, r int) float64 {
		if !s.ResourceUp(r) {
			return math.Inf(1)
		}
		return s.EstTaskDuration(t, r)
	})
	p.cursor.Schedule = plan
	p.cursor.Reset(s)
	p.doneAtPlan = s.NumDone
	p.epochAtPlan = s.FaultEpoch
	p.graphAtPlan = s.GraphEpoch
}

// resize returns s with length n, reusing its array when it has room.
func resize[S ~[]E, E any](s S, n int) S {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make(S, n-cap(s))...)
}
