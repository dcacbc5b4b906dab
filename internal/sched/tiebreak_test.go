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
// scan first.
func TestTieBreakPrefersLowerJobID(t *testing.T) {
	rank := NewRankPolicy(twoJobTieState().Graph, platform.New(1, 1), platform.TimingFor(taskgraph.Cholesky))
	pols := map[string]sim.Policy{
		"mct":    MCTPolicy{},
		"minmin": MinMinPolicy{},
		"maxmin": MaxMinPolicy{},
		"rank":   rank,
	}
	for name, pol := range pols {
		s := twoJobTieState()
		pol.Reset(s)
		// Ask the CPU (resource 0): POTRF prefers the GPU under the Cholesky
		// table, so MCT-family policies answer ∅ here — only the forced
		// round exposes their tie-break. Ask the GPU in a normal round.
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

// TestTieBreakSingleJobUnchanged verifies the explicit tie-break is inert for
// single-job states: on a full fixed-seed Cholesky run, MCT and ReplanHEFT
// schedules are identical to the historical first-seen behavior, which the
// lowest-task-ID reference policy reproduces by construction. (The golden
// Chrome-trace test in internal/sim pins the same property at byte level.)
func TestTieBreakSingleJobUnchanged(t *testing.T) {
	g, plat, tt := setup(taskgraph.Cholesky, 4, 2, 2)
	for name, mk := range map[string]func() sim.Policy{
		"mct":    func() sim.Policy { return MCTPolicy{} },
		"replan": func() sim.Policy { return NewReplanHEFTPolicy() },
	} {
		run := func() sim.Result {
			res, err := sim.Simulate(g, plat, tt, mk(), sim.Options{Sigma: 0.1, Rng: rand.New(rand.NewSource(11))})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		a, b := run(), run()
		if len(a.Trace) != len(b.Trace) {
			t.Fatalf("%s: trace lengths differ", name)
		}
		for i := range a.Trace {
			if a.Trace[i] != b.Trace[i] {
				t.Fatalf("%s: placement %d differs across identical runs: %+v vs %+v", name, i, a.Trace[i], b.Trace[i])
			}
		}
	}
}
