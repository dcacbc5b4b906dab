package rl

import (
	"math/rand"
	"testing"

	"readys/internal/core"
	"readys/internal/sim"
)

// faultSpec is a small but lively fault regime for the tiny test problem.
func faultSpec() sim.FaultSpec {
	return sim.FaultSpec{OutageRate: 1, DeathProb: 0.2, DegradeRate: 1}
}

func TestA2CTrainsUnderFaults(t *testing.T) {
	cfg := fastCfg(8)
	cfg.BatchEpisodes = 4
	cfg.Faults = faultSpec()
	tr := NewTrainer(tinyAgent(1), tinyProblem(), cfg)
	h, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Episodes) != 8 {
		t.Fatalf("got %d episodes", len(h.Episodes))
	}
	// The reward baseline stays the fault-free HEFT projection.
	if h.BaselineMakespan != tinyProblem().HEFTBaseline() {
		t.Fatal("baseline changed under faults")
	}
}

func TestFaultEpisodesActuallyFault(t *testing.T) {
	// Derived per-episode plans must inject real events on the tiny problem:
	// across a handful of episode streams at rate 1, at least one run sees a
	// kill or an episode-to-episode plan difference.
	p := tinyProblem()
	p.Faults = faultSpec()
	var kills int
	seenPlans := map[string]bool{}
	for ep := 0; ep < 6; ep++ {
		rng := rand.New(rand.NewSource(episodeSeed(1, ep)))
		plan := p.FaultPlanFor(rng.Int63())
		if plan.Empty() {
			continue
		}
		key := ""
		for _, e := range plan.Events {
			key += e.Kind.String()
		}
		seenPlans[key] = true
		rng2 := rand.New(rand.NewSource(episodeSeed(1, ep)))
		pol := core.NewTrainingPolicy(tinyAgent(1), rng2)
		res, err := p.Simulate(pol, rng2)
		if err != nil {
			t.Fatal(err)
		}
		kills += len(res.Kills)
	}
	if len(seenPlans) < 2 && kills == 0 {
		t.Fatal("fault injection appears inert: no kills and no plan diversity across episodes")
	}
}

func TestEvaluateUnderFaults(t *testing.T) {
	p := tinyProblem()
	p.Faults = faultSpec()
	agent := tinyAgent(3)
	faulty := greedyMakespans(t, agent, p, 4, 9)
	greedyMakespans(t, agent, tinyProblem(), 4, 9) // the fault-free problem on the same seeds
	// Same seeds re-yield the same faulty makespans (plan derivation is
	// part of the per-run RNG stream).
	again := greedyMakespans(t, agent, p, 4, 9)
	for i := range faulty {
		if faulty[i] != again[i] {
			t.Fatalf("faulty evaluation not reproducible: run %d %v vs %v", i, faulty[i], again[i])
		}
	}
}
