package stream

import (
	"math"

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
// policy ranks the appended tasks only, O(V+E) of the arriving job; the values
// are bit-equal to sched.UpwardRanksFor over the whole union.
//
// Dispatch mirrors MCTPolicy's resource-driven form: the asking resource
// starts the FIFO-first, rank-best ready task only if it is that task's
// ECT-best resource, and defers (∅) otherwise; forced rounds fall back to
// the same order unconditionally.
type HEFTPerJobPolicy struct {
	rank []float64 // upward rank per union task, append-only within a run
}

// NewHEFTPerJobPolicy returns a fresh policy.
func NewHEFTPerJobPolicy() *HEFTPerJobPolicy { return &HEFTPerJobPolicy{} }

// Reset implements sim.Policy.
func (p *HEFTPerJobPolicy) Reset(s *sim.State) {
	p.rank = p.rank[:0]
	p.refresh(s)
}

// refresh ranks the tasks appended since the last call, with the arithmetic
// of sched.UpwardRanksFor.
func (p *HEFTPerJobPolicy) refresh(s *sim.State) {
	g := s.Graph
	lo, n := len(p.rank), g.NumTasks()
	if lo >= n {
		return
	}
	order, err := g.ReverseTopoFrom(lo)
	if err != nil {
		panic(err)
	}
	p.rank = append(p.rank, make([]float64, n-lo)...)
	for _, i := range order {
		var w float64
		tt := s.TaskTiming(i)
		for _, r := range s.Platform.Resources {
			w += tt.ExpectedDuration(g.Tasks[i].Kernel, r.Type)
		}
		var best float64
		for _, j := range g.Succ[i] {
			if p.rank[j] > best {
				best = p.rank[j]
			}
		}
		p.rank[i] = w/float64(s.Platform.Size()) + best
	}
}

// Decide implements sim.Policy.
func (p *HEFTPerJobPolicy) Decide(s *sim.State, r int) int {
	p.refresh(s)
	best := sim.NoTask
	for _, t := range s.Ready {
		if p.before(s, t, best) {
			best = t
		}
	}
	if best == sim.NoTask {
		return sim.NoTask
	}
	if bestRes := p.ectBest(s, best); bestRes == r || s.MustAct {
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

// ectBest returns the available resource minimising the expected completion
// time of task t (ties to the smaller ID), or -1 if none is up.
func (p *HEFTPerJobPolicy) ectBest(s *sim.State, t int) int {
	best, bestECT := -1, math.Inf(1)
	for r := 0; r < s.Platform.Size(); r++ {
		if !s.ResourceUp(r) {
			continue
		}
		if ect := s.Now + s.EstTimeUntilFree(r) + s.EstTaskDuration(t, r); ect < bestECT {
			best, bestECT = r, ect
		}
	}
	return best
}

var _ sim.Policy = (*HEFTPerJobPolicy)(nil)
