package core

import (
	"math/rand"
	"runtime"
	"testing"

	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestPolicyDecideAllocFree: once warm, greedy episodes of a NewPolicy on the
// committed Cholesky T=8 checkpoint decide without allocating, and the policy
// keeps little memory. Each forward is Agent.ForwardBatch on the policy's
// resident inference tape: a node made per op instead of taken from the
// tape's arena is ≈ 23 allocations a decision, and op outputs kept on the
// gradient tape's power-of-two free list instead of in exact per-position
// slots retain ≈ 330 kB against ≈ 120 kB (amd64, go1.24).
func TestPolicyDecideAllocFree(t *testing.T) {
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	if _, err := agent.LoadCheckpoint("../../models/readys_cholesky_T8_2c2g_w2_l2_h32.json"); err != nil {
		t.Fatal(err)
	}
	prob := NewProblem(taskgraph.Cholesky, 8, 2, 2, 0.1)
	rn, rng := new(sim.Runner), rand.New(rand.NewSource(2))
	episode := func(pol *Policy) {
		if _, err := prob.SimulateOn(rn, pol, rng); err != nil {
			t.Fatal(err)
		}
	}
	episode(NewPolicy(agent)) // warm the runner, which is not the policy's

	var base, before, after, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	pol := NewPolicy(agent)
	episode(pol)
	decisions := pol.InferenceCount
	runtime.ReadMemStats(&before)
	for range 20 {
		episode(pol)
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	runtime.KeepAlive(pol)

	n := pol.InferenceCount - decisions
	per := float64(after.Mallocs-before.Mallocs) / float64(n)
	retained := (int64(kept.HeapAlloc) - int64(base.HeapAlloc)) / 1024
	t.Logf("%d decisions, %.4f allocations a decision; the warm policy retains %d kB", n, per, retained)
	if per > 0.01 {
		t.Fatalf("%.4f allocations a decision over %d warm decisions, want ≤ 0.01", per, n)
	}
	if retained > 256 {
		t.Fatalf("a warm policy retains %d kB, want ≤ 256 kB", retained)
	}
}
