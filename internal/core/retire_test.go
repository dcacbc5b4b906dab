package core

import (
	"fmt"
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

// TestIncrementalRetiresFinishedJobs runs a 200-job stream under a fault plan
// that kills tasks and, halfway, kills a CPU for good, with and without fault
// features. The encoder keeps its per-task caches for the live jobs only: they
// must have let go of finished jobs, and never held more than twice the most
// tasks ever live (State.LiveFrom on), however many the union grew to. That
// the policy chooses what the full-rebuild reference policy chooses on this
// stream, decision for decision, is the reference relation of the root
// package's TestDifferential.
func TestIncrementalRetiresFinishedJobs(t *testing.T) {
	arr, err := stream.PoissonProcess{
		Rate: 6, Jobs: 200, Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR}, Sizes: []int{2, 3},
	}.Generate(rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.New(2, 2)
	plan := sim.GeneratePlan(5, plat.Size(), sim.SpecForRate(1.0, arr[len(arr)-1].At+3000))
	plan.Events = append(plan.Events, sim.FaultEvent{Kind: sim.FaultDeath, Resource: 0, At: arr[len(arr)/2].At})
	// Each agent starts tasks rather than idling until forced (an untrained
	// agent may do either), so the bound on held rows has work to do.
	for _, cfg := range []Config{
		{Window: 2, Layers: 2, Hidden: 16, Seed: 6},
		{Window: 2, Layers: 2, Hidden: 16, Seed: 9, FaultFeatures: true},
	} {
		ctx := fmt.Sprintf("fault features %v", cfg.FaultFeatures)
		pol := NewPolicy(NewAgent(cfg))
		e := pol.inc
		peak, held := 0, 0
		probe := policyFunc{reset: pol.Reset, decide: func(s *sim.State, r int) int {
			task := pol.Decide(s, r)
			peak = max(peak, s.Graph.NumTasks()-s.LiveFrom())
			held = max(held, e.scratch.Held(), e.desc.Held())
			if held > 2*peak {
				t.Fatalf("%s: the encoder holds %d rows, at most %d tasks were ever live", ctx, held, peak)
			}
			return task
		}}
		got, err := stream.Run(probe, stream.Config{
			Platform: plat, Arrivals: arr, Sigma: 0.1, Faults: plan, Rng: rand.New(rand.NewSource(22)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Kills == 0 {
			t.Fatalf("%s: no kill: the plan does not exercise re-execution", ctx)
		}
		total := len(got.Sim.Trace)
		if 10*peak > total {
			t.Fatalf("%s: %d of %d tasks were live at once: the agent idles, and the bound holds trivially", ctx, peak, total)
		}
		if live := e.scratch.Live(); live < total/2 {
			t.Fatalf("%s: the encoder's caches start at task %d of %d: finished jobs were not retired", ctx, live, total)
		}
		t.Logf("%s: %d decisions, %d kills; %d union tasks, at most %d live, at most %d rows held", ctx, got.Decisions, got.Kills, total, peak, held)
	}
}
