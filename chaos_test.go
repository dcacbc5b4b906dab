package readys_test

import (
	"fmt"
	"math/rand"
	"testing"

	"readys/internal/sim"
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
			for _, name := range []string{"readys", "heft", "replan-heft", "mct"} {
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
