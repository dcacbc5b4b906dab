package sched

import "readys/internal/sim"

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
