package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

var randomSigmas = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}

// TestValidOnRandomDAGsProperty checks each policy end to end on arbitrary
// multi-root layered DAGs: HEFT's static replay on every small platform at
// every σ, the dynamic MCT on 2c2g, and the adaptive ReplanHEFT on 2c1g at
// σ = 0.4. The projection must be a feasible schedule and the run must
// execute without deadlock.
func TestValidOnRandomDAGsProperty(t *testing.T) {
	for _, c := range []struct {
		name       string
		policy     func(*HEFTSchedule) sim.Policy
		cpus, gpus []int
		sigmas     []float64
		runs       int
	}{
		{"heft", func(h *HEFTSchedule) sim.Policy { return NewStaticPolicy(h) }, []int{1, 2, 3}, []int{0, 1, 2}, randomSigmas, 40},
		{"mct", func(*HEFTSchedule) sim.Policy { return MCTPolicy{} }, []int{2}, []int{2}, randomSigmas, 40},
		{"replan-heft", func(*HEFTSchedule) sim.Policy { return NewReplanHEFTPolicy() }, []int{2}, []int{1}, []float64{0.4}, 25},
	} {
		t.Run(c.name, func(t *testing.T) { validOnRandomDAGs(t, c.policy, c.cpus, c.gpus, c.sigmas, c.runs) })
	}
}

// validOnRandomDAGs runs policy end to end on runs arbitrary multi-root
// layered DAGs, on a platform and at a σ drawn from cpus, gpus and sigmas:
// the run must execute without deadlock and its schedule validate, and
// HEFT's projection, from which policy is built, must be a feasible schedule
// itself.
func validOnRandomDAGs(t *testing.T, policy func(*HEFTSchedule) sim.Policy, cpus, gpus []int, sigmas []float64, runs int) {
	t.Helper()
	f := func(seed int64, c, g, sigma uint8) bool {
		dag := taskgraph.NewLayeredRandom(rand.New(rand.NewSource(seed)), taskgraph.DefaultRandomConfig())
		plat := platform.New(cpus[int(c)%len(cpus)], gpus[int(g)%len(gpus)])
		tt := platform.TimingFor(taskgraph.Random)
		h := HEFT(dag, plat, tt)
		proj := sim.Result{Makespan: h.Makespan}
		for task := 0; task < dag.NumTasks(); task++ {
			proj.Trace = append(proj.Trace, sim.Placement{
				Task: task, Resource: h.Assignment[task], Start: h.ProjStart[task], End: h.ProjEnd[task],
			})
		}
		if err := sim.ValidateResult(dag, plat.Size(), proj); err != nil {
			t.Logf("seed %d on %v: HEFT's projection: %v", seed, plat, err)
			return false
		}
		res, err := sim.Simulate(dag, plat, tt, policy(h), sim.Options{
			Sigma: sigmas[int(sigma)%len(sigmas)], Rng: rand.New(rand.NewSource(seed + 1)),
		})
		if err == nil {
			err = sim.ValidateResult(dag, plat.Size(), res)
		}
		if err != nil {
			t.Logf("seed %d on %v: %v", seed, plat, err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: runs}); err != nil {
		t.Fatal(err)
	}
}
