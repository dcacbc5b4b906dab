package readys_test

import (
	"fmt"
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestChaosAllPoliciesSurviveRandomFaults is the chaos property suite: on the
// random layered DAGs under random fault plans of TestDifferential's chaos
// cases (the fault rate cycles through mild, standard and harsh), every policy
// must (a) complete all tasks and (b) produce a schedule that passes the
// strict fault-aware validator. That a replay of these runs is bit-identical
// is the harness's replay relation.
func TestChaosAllPoliciesSurviveRandomFaults(t *testing.T) {
	for _, c := range corpus {
		if c.group != "chaos" {
			continue
		}
		t.Run(fmt.Sprintf("seed=%d", c.dag), func(t *testing.T) {
			t.Parallel()
			for _, name := range []string{"readys", "heft", "replan-heft", "mct", "minmin"} {
				res, err := sim.Simulate(c.g, c.plat, c.tt, policies[name](c), sim.Options{
					Sigma: c.sigma, Rng: rand.New(rand.NewSource(c.seed)), Faults: c.plan})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(res.Trace) != c.g.NumTasks() {
					t.Fatalf("%s: %d of %d tasks completed", name, len(res.Trace), c.g.NumTasks())
				}
				if err := sim.ValidateResultStrict(c.g, res, sim.CheckOptions{
					Platform: c.plat, Timing: c.tt, Sigma: c.sigma, Faults: c.plan,
				}); err != nil {
					t.Fatalf("%s: strict validation: %v", name, err)
				}
			}
		})
	}
}

// TestChaosFaultFreePlansAreInert pins the bit-inertness contract at the
// property level: on random DAGs, simulating with a nil plan and with an
// explicitly empty plan must agree exactly, noise or not.
func TestChaosFaultFreePlansAreInert(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := taskgraph.NewLayeredRandom(rng, taskgraph.DefaultRandomConfig())
		plat := platform.New(2, 1)
		tt := platform.TimingFor(taskgraph.Random)
		run := func(plan *sim.FaultPlan) sim.Result {
			res, err := sim.Simulate(g, plat, tt, sched.MCTPolicy{}, sim.Options{
				Sigma: 0.25, Rng: rand.New(rand.NewSource(seed)), Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if a, b := run(nil), run(&sim.FaultPlan{}); a.Makespan != b.Makespan {
			t.Fatalf("seed %d: empty plan perturbed the simulation: %v vs %v", seed, a.Makespan, b.Makespan)
		}
	}
}
