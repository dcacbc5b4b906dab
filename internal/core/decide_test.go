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
	decisions := pol.Stats.Decisions
	runtime.ReadMemStats(&before)
	for range 20 {
		episode(pol)
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	runtime.KeepAlive(pol)

	n := pol.Stats.Decisions - decisions
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

// TestDecideStatsCount: the default policy and the reference policy make the
// same decisions on the same windows, so they count the same Decisions,
// WindowRows and Idle (the simulator's IdleDecisions); only the default one
// memoises and carries windows over, and
// the reference, like a recording policy, runs the network at every decision.
func TestDecideStatsCount(t *testing.T) {
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 4})
	prob := NewProblem(taskgraph.Cholesky, 6, 2, 2, 0.1)
	run := func(pol *Policy) DecideStats {
		res, err := prob.Simulate(pol, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		if pol.Stats.Decisions != res.Decisions || pol.Stats.Idle != res.IdleDecisions {
			t.Fatalf("%d decisions and %d ∅ counted, the simulator asked %d times and idled %d",
				pol.Stats.Decisions, pol.Stats.Idle, res.Decisions, res.IdleDecisions)
		}
		return pol.Stats
	}
	fast, ref := run(NewPolicy(agent)), run(NewReferencePolicy(agent))
	if fast.Decisions != ref.Decisions || fast.WindowRows != ref.WindowRows {
		t.Fatalf("default %+v and reference %+v saw different decisions", fast, ref)
	}
	if ref.Forwards != ref.Decisions || ref.Rebuilds != ref.Decisions || ref.MemoHits() != 0 {
		t.Fatalf("reference %+v: every decision must rebuild and forward", ref)
	}
	if fast.MemoHits() <= 0 || fast.Rebuilds <= 0 || fast.Rebuilds >= fast.Decisions {
		t.Fatalf("default %+v: want memo hits and windows carried over", fast)
	}
	if fast.ForwardTime <= 0 || fast.WindowRows <= fast.Decisions || fast.Idle <= 1 || fast.Idle != ref.Idle {
		t.Fatalf("default %+v, reference %+v: implausible forward time, window rows or ∅ count", fast, ref)
	}
	if d := fast.Sub(DecideStats{Decisions: 1, Forwards: 1, Idle: 1}); d.MemoHits() != fast.MemoHits() || d.WindowRows != fast.WindowRows || d.Idle != fast.Idle-1 {
		t.Fatalf("Sub: %+v from %+v", d, fast)
	}
}
