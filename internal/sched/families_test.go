package sched

import (
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestAllPoliciesAllFamilies is a cross-product soak test: every scheduler
// must produce a schedule on every DAG family, with and without noise, that
// the strict validator accepts — every slice checked against the timing
// table.
func TestAllPoliciesAllFamilies(t *testing.T) {
	kinds := []taskgraph.Kind{
		taskgraph.Cholesky, taskgraph.LU, taskgraph.QR,
		taskgraph.Gemm, taskgraph.Stencil, taskgraph.ForkJoin,
	}
	for _, kind := range kinds {
		g := taskgraph.NewByKind(kind, 4)
		plat := platform.New(2, 2)
		tt := platform.TimingFor(kind)
		policies := map[string]sim.Policy{
			"fifo":   FIFOPolicy{},
			"random": RandomPolicy{Rng: rand.New(rand.NewSource(1))},
			"mct":    MCTPolicy{},
			"minmin": MinMinPolicy{},
			"maxmin": MaxMinPolicy{},
			"rank":   NewRankPolicy(g, plat, tt),
			"heft":   NewStaticPolicy(HEFT(g, plat, tt)),
		}
		for name, pol := range policies {
			for _, sigma := range []float64{0, 0.3} {
				res, err := sim.Simulate(g, plat, tt, pol, sim.Options{
					Sigma: sigma, Rng: rand.New(rand.NewSource(7)),
				})
				if err != nil {
					t.Fatalf("%v/%s σ=%v: %v", kind, name, sigma, err)
				}
				if err := sim.ValidateResultStrict(g, res, sim.CheckOptions{Platform: plat, Timing: tt, Sigma: sigma}); err != nil {
					t.Fatalf("%v/%s σ=%v: %v", kind, name, sigma, err)
				}
			}
		}
	}
}

// TestHEFTBeatsFIFOAcrossFamilies checks the heuristics keep their expected
// ordering on the new families too.
func TestHEFTBeatsFIFOAcrossFamilies(t *testing.T) {
	for _, kind := range []taskgraph.Kind{taskgraph.Gemm, taskgraph.Stencil, taskgraph.ForkJoin} {
		g := taskgraph.NewByKind(kind, 5)
		plat := platform.New(2, 2)
		tt := platform.TimingFor(kind)
		h := HEFT(g, plat, tt)
		fifo, err := sim.Simulate(g, plat, tt, FIFOPolicy{}, sim.Options{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		if h.Makespan > fifo.Makespan {
			t.Fatalf("%v: HEFT %.1f worse than FIFO %.1f", kind, h.Makespan, fifo.Makespan)
		}
	}
}
