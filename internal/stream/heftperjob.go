package stream

import (
	"readys/internal/sched"
	"readys/internal/sim"
)

// HEFTPerJobPolicy is the classical multi-tenant baseline: jobs are served
// FIFO (earliest arrival first) and, within a job, tasks follow that job's
// own HEFT upward ranks, each placed on the resource minimising its expected
// completion time. Because concurrent jobs are disjoint components of the
// union DAG, a task's upward rank reads only its own job (per-task timing
// tables, current platform): it is exactly per-job HEFT — the plan each job
// would get in isolation — and is final once computed, while placement still
// sees the real shared load through the ECT term. When the graph grows the
// policy ranks the appended tasks only (sched.AppendUpwardRanks), O(V+E) of
// the arriving job; each job's ranks are bit-equal to sched.UpwardRanks over
// that job's own graph and timing table.
//
// Dispatch mirrors MCTPolicy's resource-driven form: the asking resource
// starts the FIFO-first, rank-best ready task only if it is that task's
// ECT-best resource (sched.MCTChoice), and defers (∅) otherwise; forced
// rounds fall back to the same order unconditionally.
type HEFTPerJobPolicy struct {
	rank []float64 // upward rank per union task, append-only within a run
}

// NewHEFTPerJobPolicy returns a fresh policy.
func NewHEFTPerJobPolicy() *HEFTPerJobPolicy { return &HEFTPerJobPolicy{} }

// Reset implements sim.Policy.
func (p *HEFTPerJobPolicy) Reset(*sim.State) { p.rank = p.rank[:0] }

// Decide implements sim.Policy.
func (p *HEFTPerJobPolicy) Decide(s *sim.State, r int) int {
	p.rank = sched.AppendUpwardRanks(p.rank, s.Graph, s.Platform, s.TaskTiming)
	best := sim.NoTask
	for _, t := range s.Ready {
		if p.before(s, t, best) {
			best = t
		}
	}
	if best == sim.NoTask {
		return sim.NoTask
	}
	if bestRes, _ := sched.MCTChoice(s, best); bestRes == r || s.MustAct {
		return best
	}
	return sim.NoTask
}

// before reports whether ready task a should dispatch before current pick b:
// FIFO across jobs, decreasing upward rank within a job, then task ID.
func (p *HEFTPerJobPolicy) before(s *sim.State, a, b int) bool {
	if b == sim.NoTask {
		return true
	}
	if ja, jb := s.JobOf(a), s.JobOf(b); ja != jb {
		return ja < jb
	}
	if p.rank[a] != p.rank[b] {
		return p.rank[a] > p.rank[b]
	}
	return a < b
}

var _ sim.Policy = (*HEFTPerJobPolicy)(nil)
