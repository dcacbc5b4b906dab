package sched

import (
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestAllPoliciesAllFamilies is a cross-product soak test: every scheduler
// must produce a schedule on every DAG family, and on layered random DAGs of
// irregular shape (several roots and sinks, long edges), with and without
// noise, that the strict validator accepts — every slice checked against the
// timing table.
func TestAllPoliciesAllFamilies(t *testing.T) {
	var graphs []*taskgraph.Graph
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		graphs = append(graphs, taskgraph.NewByKind(kind, 4))
	}
	for seed := int64(1); seed <= 3; seed++ {
		graphs = append(graphs, taskgraph.NewLayeredRandom(rand.New(rand.NewSource(seed)), taskgraph.DefaultRandomConfig()))
	}
	for i, g := range graphs {
		plat := platform.New(2, 2)
		tt := platform.TimingFor(g.Kind)
		policies := map[string]sim.Policy{
			"fifo": FIFOPolicy{},
			"mct":  MCTPolicy{},
			"heft": NewStaticPolicy(HEFT(g, plat, tt)),
		}
		for name, pol := range policies {
			for _, sigma := range []float64{0, 0.3} {
				res, err := sim.Simulate(g, plat, tt, pol, sim.Options{
					Sigma: sigma, Rng: rand.New(rand.NewSource(7)),
				})
				if err != nil {
					t.Fatalf("graph %d (%v)/%s σ=%v: %v", i, g.Kind, name, sigma, err)
				}
				if err := sim.ValidateResultStrict(g, res, sim.CheckOptions{Platform: plat, Timing: tt, Sigma: sigma}); err != nil {
					t.Fatalf("graph %d (%v)/%s σ=%v: %v", i, g.Kind, name, sigma, err)
				}
			}
		}
	}
}
