package stream

import (
	"math"
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestUtilizationCountsKills: a stream's busy time is what its resources
// spent — every completed task and every killed attempt up to its kill — so
// Utilization × resources × Makespan equals Σ (End − Start) over the trace
// plus Σ (At − Start) over the kills.
func TestUtilizationCountsKills(t *testing.T) {
	plat := platform.New(2, 2)
	arr, err := PoissonProcess{Rate: 30, Jobs: 12, Kinds: []taskgraph.Kind{taskgraph.Cholesky}, Sizes: []int{4}}.
		Generate(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		res, err := Run(sched.MCTPolicy{}, Config{
			Platform: plat,
			Arrivals: arr,
			Sigma:    0.1,
			Faults:   sim.GeneratePlan(seed, plat.Size(), sim.SpecForRate(2, 600)),
			Rng:      rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Sim.Kills) == 0 {
			t.Fatalf("seed %d: the fault plan killed nothing", seed)
		}
		var busy float64
		for _, p := range res.Sim.Trace {
			busy += p.End - p.Start
		}
		for _, k := range res.Sim.Kills {
			busy += k.At - k.Start
		}
		got := res.Utilization * float64(plat.Size()) * res.Makespan
		if math.Abs(got-busy) > 1e-9*busy {
			t.Errorf("seed %d: utilization counts %.6f ms busy, the trace and %d kills %.6f ms",
				seed, got, len(res.Sim.Kills), busy)
		}
	}
}
