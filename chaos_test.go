package readys_test

import (
	"fmt"
	"math/rand"
	"testing"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// chaosSeeds is the number of random (DAG, fault plan) pairs each policy is
// driven through. Every seed produces a different layered DAG and a different
// fault regime (the rate cycles through mild, standard and harsh).
const chaosSeeds = 25

// chaosPolicies enumerates the schedulers under chaos test. Each entry
// constructs a fresh policy per run so replays carry no state over.
func chaosPolicies(g *taskgraph.Graph, plat platform.Platform, tt platform.Timing) map[string]func() sim.Policy {
	return map[string]func() sim.Policy{
		"readys": func() sim.Policy {
			// An untrained agent exercises the full featurise→GCN→decide
			// path; its argmax rule keeps it deterministic.
			return core.NewPolicy(core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 11}))
		},
		"heft":        func() sim.Policy { return sched.NewStaticPolicy(sched.HEFT(g, plat, tt)) },
		"replan-heft": func() sim.Policy { return sched.NewReplanHEFTPolicy() },
		"mct":         func() sim.Policy { return sched.MCTPolicy{} },
		"minmin":      func() sim.Policy { return sched.MinMinPolicy{} },
	}
}

// TestChaosAllPoliciesSurviveRandomFaults is the chaos property suite: for
// randomized layered DAGs under randomized fault plans, every policy must
// (a) complete all tasks, (b) produce a schedule that passes the strict
// fault-aware validator, and (c) be bit-reproducible — the same seed yields
// the same makespan on replay.
func TestChaosAllPoliciesSurviveRandomFaults(t *testing.T) {
	rates := []float64{0.5, 1, 2}
	for seed := int64(0); seed < chaosSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			cfg := taskgraph.RandomConfig{Layers: 5, WidthMin: 2, WidthMax: 5, EdgeProb: 0.35, LongEdgeProb: 0.1}
			g := taskgraph.NewLayeredRandom(rng, cfg)
			plat := platform.New(2, 2)
			tt := platform.TimingFor(taskgraph.Random)

			rate := rates[seed%int64(len(rates))]
			horizon := core.FaultHorizonFactor * sched.HEFT(g, plat, tt).Makespan
			plan := sim.GeneratePlan(seed*2654435761+97, plat.Size(), sim.SpecForRate(rate, horizon))
			sigma := 0.1 * float64(seed%4)

			for name, mk := range chaosPolicies(g, plat, tt) {
				run := func() sim.Result {
					res, err := sim.Simulate(g, plat, tt, mk(), sim.Options{
						Sigma: sigma, Rng: rand.New(rand.NewSource(seed + 1000)), Faults: plan})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return res
				}
				res := run()
				if len(res.Trace) != g.NumTasks() {
					t.Fatalf("%s: %d of %d tasks completed", name, len(res.Trace), g.NumTasks())
				}
				if err := sim.ValidateResultStrict(g, res, sim.CheckOptions{
					Platform: plat, Timing: tt, Sigma: sigma, Faults: plan,
				}); err != nil {
					t.Fatalf("%s: strict validation: %v", name, err)
				}
				if again := run(); again.Makespan != res.Makespan {
					t.Fatalf("%s: replay of seed %d diverged: %v vs %v", name, seed, res.Makespan, again.Makespan)
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
