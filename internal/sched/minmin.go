package sched

import (
	"math"

	"readys/internal/sim"
)

// MinMinPolicy is the dynamic Min-Min heuristic: among the ready tasks, the
// one with the globally smallest expected completion time is scheduled first,
// on its best resource. Small tasks drain quickly, at the risk of delaying
// the long critical-path tasks — the classical contrast to Max-Min.
//
// In the resource-driven decision loop, the asking resource r starts the
// min-ECT task only if r is that task's best resource; otherwise r may still
// be the best resource of some other ready task, so it falls back to MCT's
// view for r and resources are not starved.
type MinMinPolicy struct{}

// Reset implements sim.Policy.
func (MinMinPolicy) Reset(*sim.State) {}

// Decide implements sim.Policy.
func (MinMinPolicy) Decide(s *sim.State, r int) int { return extremeECT(s, r, 1) }

// MaxMinPolicy is the dynamic Max-Min heuristic: among the ready tasks, the
// one with the *largest* minimum expected completion time (the heaviest
// remaining task) is scheduled first on its best resource. Long tasks start
// early, which often shortens the critical path on heterogeneous platforms.
// It decides like MinMinPolicy otherwise.
type MaxMinPolicy struct{}

// Reset implements sim.Policy.
func (MaxMinPolicy) Reset(*sim.State) {}

// Decide implements sim.Policy.
func (MaxMinPolicy) Decide(s *sim.State, r int) int { return extremeECT(s, r, -1) }

// extremeECT is Min-Min's (dir = 1) and Max-Min's (dir = -1) decision: the
// ready task whose minimum ECT, times dir, is smallest — exact ties to the
// smaller (job, task) — if r is its best resource, MCT's choice for r
// otherwise.
func extremeECT(s *sim.State, r int, dir float64) int {
	bestTask, bestRes, bestKey := sim.NoTask, -1, math.Inf(1)
	for _, t := range s.Ready {
		res, ect := MCTChoice(s, t)
		if key := dir * ect; key < bestKey || (key == bestKey && bestTask != sim.NoTask && jobTaskLess(s, t, bestTask)) {
			bestTask, bestRes, bestKey = t, res, key
		}
	}
	if bestRes == r {
		return bestTask
	}
	return MCTPolicy{}.Decide(s, r)
}
