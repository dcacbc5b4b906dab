package sched

import (
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// twoJobTieState builds a minimal two-task state where both ready tasks are
// interchangeable (same kernel, no predecessors, idle platform), so every
// ECT- or rank-based key ties exactly. The job ID is deliberately NON-monotone in
// task ID — task 0 belongs to job 1 and task 1 to job 0 — so the (job, task)
// tie-break order differs from plain task order and from ready-set iteration
// order: any policy leaning on first-seen iteration would pick task 0.
func twoJobTieState() *sim.State {
	g := taskgraph.NewCustom(taskgraph.Cholesky, [taskgraph.NumKernels]string{"POTRF", "TRSM", "SYRK", "GEMM"})
	g.AddTask(0, "POTRF(0)")
	cl, err := sim.NewCluster(platform.New(1, 1), sim.Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		panic(err)
	}
	for _, job := range []int{1, 0} {
		if _, err := cl.AddJob(job, g, platform.TimingFor(taskgraph.Cholesky)); err != nil {
			panic(err)
		}
	}
	return cl.State()
}

// TestTieBreakPrefersLowerJobID pins the multi-job tie-break contract: when
// the scheduling key is exactly equal, every list policy must prefer the
// lower job ID (then the lower task ID), not whichever task it happened to
// scan first. The static entry has an empty plan and equal ranks, so its
// forced round reaches highestRank with a tie.
func TestTieBreakPrefersLowerJobID(t *testing.T) {
	pols := map[string]sim.Policy{
		"mct":    MCTPolicy{},
		"static": NewStaticPolicy(&HEFTSchedule{Order: make([][]int, 2), Rank: []float64{0, 0}}),
	}
	for name, pol := range pols {
		s := twoJobTieState()
		pol.Reset(s)
		// Ask the GPU (resource 1), POTRF's best resource, so MCT answers in
		// a normal round; the static entry's empty plan answers ∅ until the
		// round is forced.
		got := pol.Decide(s, 1)
		if got == sim.NoTask {
			s.MustAct = true
			got = pol.Decide(s, 1)
		}
		if got != 1 {
			t.Errorf("%s: picked task %d on tie, want task 1 (job 0)", name, got)
		}
	}
}
