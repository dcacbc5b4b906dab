package sched

import (
	"math/rand"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// jobTaskLess reports whether ready task a precedes ready task b in the
// deterministic tie-break order used when a policy's scheduling key (ECT,
// rank, ...) is exactly equal: lower job ID first, then lower task ID. In
// single-job runs JobOf is identically zero, so the order reduces to task ID
// — the engine's historical first-seen order over the sorted ready set —
// which keeps single-DAG schedules (and the golden Cholesky trace)
// byte-identical. Under multi-job ready sets it pins the winner explicitly
// instead of leaning on iteration order.
func jobTaskLess(s *sim.State, a, b int) bool {
	if ja, jb := s.JobOf(a), s.JobOf(b); ja != jb {
		return ja < jb
	}
	return a < b
}

// FIFOPolicy always starts the lowest-ID ready task on whichever resource
// asks. Task IDs follow generation order, which for the factorisation DAGs is
// a sensible elimination order, so FIFO is a meaningful weak baseline.
type FIFOPolicy struct{}

// Reset implements sim.Policy.
func (FIFOPolicy) Reset(*sim.State) {}

// Decide implements sim.Policy.
func (FIFOPolicy) Decide(s *sim.State, _ int) int { return s.Ready[0] }

// RandomPolicy starts a uniformly random ready task. It needs its own RNG so
// that baseline randomness is decoupled from the simulator's duration noise.
type RandomPolicy struct {
	Rng *rand.Rand
}

// Reset implements sim.Policy.
func (RandomPolicy) Reset(*sim.State) {}

// Decide implements sim.Policy.
func (p RandomPolicy) Decide(s *sim.State, _ int) int {
	return s.Ready[p.Rng.Intn(len(s.Ready))]
}

// RankPolicy is dynamic list scheduling with HEFT priorities: it always
// starts the ready task with the highest upward rank (the task farthest from
// the end of the computation), on whichever resource asks. It uses dynamic
// dispatch like MCT but HEFT's global priority information, isolating the
// value of priorities from the value of static placement.
type RankPolicy struct {
	rank []float64
}

// NewRankPolicy precomputes upward ranks for the given problem.
func NewRankPolicy(g *taskgraph.Graph, plat platform.Platform, tt platform.Timing) *RankPolicy {
	return &RankPolicy{rank: UpwardRanks(g, plat, tt)}
}

// Reset implements sim.Policy.
func (*RankPolicy) Reset(*sim.State) {}

// Decide implements sim.Policy.
func (p *RankPolicy) Decide(s *sim.State, _ int) int { return highestRank(s, p.rank) }

// highestRank returns the ready task of highest rank, exact ties to the
// smaller (job, task), or NoTask when none is ready.
func highestRank(s *sim.State, rank []float64) int {
	best := sim.NoTask
	for _, t := range s.Ready {
		if best == sim.NoTask || rank[t] > rank[best] || (rank[t] == rank[best] && jobTaskLess(s, t, best)) {
			best = t
		}
	}
	return best
}
