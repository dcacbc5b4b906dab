package sched

import (
	"math"

	"readys/internal/sim"
)

// MCTPolicy is the dynamic Minimum Completion Time heuristic [46]: a ready
// task is assigned to the resource on which it is *expected* to complete
// soonest, taking into account each resource's current load
// (max(now, busy-until) + expected duration). Like READYS, MCT never looks at
// the DAG beyond the ready set.
//
// Within the simulator's resource-driven decision loop this is realised as:
// when asked to fill resource r, MCT starts the ready task whose
// minimum-completion-time resource is r (the task that "wants" r most, ties
// broken towards the earliest completion); if every ready task would complete
// sooner elsewhere — e.g. a GPU-loving update task prefers waiting for a busy
// GPU over starting on a free CPU — the resource is left idle (∅).
type MCTPolicy struct{}

// Reset implements sim.Policy.
func (MCTPolicy) Reset(*sim.State) {}

// Decide implements sim.Policy.
func (MCTPolicy) Decide(s *sim.State, r int) int {
	bestTask := sim.NoTask
	bestECT := math.Inf(1)
	for _, t := range s.Ready {
		res, ect := MCTChoice(s, t)
		if res == r && (ect < bestECT || (ect == bestECT && bestTask != sim.NoTask && jobTaskLess(s, t, bestTask))) {
			bestTask, bestECT = t, ect
		}
	}
	if bestTask == sim.NoTask && s.MustAct {
		// Forced round: every ready task prefers another resource, but time
		// cannot advance unless someone starts. Take the task completing
		// soonest on r instead of deadlocking; exact ECT ties break by
		// (job, task) like everywhere else.
		for _, t := range s.Ready {
			if ect := ectOn(s, t, r); ect < bestECT || (ect == bestECT && bestTask != sim.NoTask && jobTaskLess(s, t, bestTask)) {
				bestTask, bestECT = t, ect
			}
		}
	}
	return bestTask
}

// ectOn returns the expected completion time of ready task t on resource r
// under r's current speed factor.
func ectOn(s *sim.State, t, r int) float64 {
	return s.Now + s.EstTimeUntilFree(r) + s.EstTaskDuration(t, r)
}

// MCTChoice returns the resource minimising the expected completion time of
// task t and that time, or -1 and +Inf when no resource is up. Ties break
// towards the smaller resource ID, keeping the heuristic deterministic.
// Unavailable resources (outage or death) are excluded: dispatching to them
// would stall forever.
func MCTChoice(s *sim.State, t int) (int, float64) {
	best, bestECT := -1, math.Inf(1)
	for r := 0; r < s.Platform.Size(); r++ {
		if !s.ResourceUp(r) {
			continue
		}
		if ect := ectOn(s, t, r); ect < bestECT {
			best, bestECT = r, ect
		}
	}
	return best, bestECT
}
