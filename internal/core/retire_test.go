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
// features. The encoder keeps
// its per-task caches for the live jobs only, and yet the policy must choose
// what the full-rebuild reference policy chooses at every decision, with the
// same result. Its caches must have let go of finished jobs, and never held
// more than twice the most tasks ever live (State.LiveFrom on), however many
// the union grew to.
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
	run := func(pol sim.Policy, decide func(s *sim.State, r int)) (*stream.Result, []int) {
		var chose []int
		probe := policyFunc{reset: pol.Reset, decide: func(s *sim.State, r int) int {
			task := pol.Decide(s, r)
			if decide != nil {
				decide(s, r)
			}
			chose = append(chose, task)
			return task
		}}
		res, err := stream.Run(probe, stream.Config{
			Platform: plat, Arrivals: arr, Sigma: 0.1, Faults: plan, Rng: rand.New(rand.NewSource(22)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, chose
	}
	for _, ff := range []bool{false, true} {
		ctx := fmt.Sprintf("fault features %v", ff)
		agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 6, FaultFeatures: ff})
		pol := NewPolicy(agent)
		e := pol.inc
		peak, held := 0, 0
		got, chose := run(pol, func(s *sim.State, r int) {
			peak = max(peak, s.Graph.NumTasks()-s.LiveFrom())
			held = max(held, e.scratch.Held(), e.desc.Held())
			if held > 2*peak {
				t.Fatalf("%s: the encoder holds %d rows, at most %d tasks were ever live", ctx, held, peak)
			}
		})
		want, wantChose := run(NewReferencePolicy(agent), nil)
		if len(chose) != len(wantChose) {
			t.Fatalf("%s: %d decisions, the reference made %d", ctx, len(chose), len(wantChose))
		}
		for i := range chose {
			if chose[i] != wantChose[i] {
				t.Fatalf("%s: decision %d chose %d, the reference %d", ctx, i, chose[i], wantChose[i])
			}
		}
		if got.Makespan != want.Makespan || got.Kills != want.Kills || len(got.Sim.Trace) != len(want.Sim.Trace) {
			t.Fatalf("%s: result diverged from the reference: makespan %v/%v, kills %d/%d", ctx, got.Makespan, want.Makespan, got.Kills, want.Kills)
		}
		for i := range got.Sim.Trace {
			if got.Sim.Trace[i] != want.Sim.Trace[i] {
				t.Fatalf("%s: trace[%d] %+v, the reference %+v", ctx, i, got.Sim.Trace[i], want.Sim.Trace[i])
			}
		}
		if got.Kills == 0 {
			t.Fatalf("%s: no kill: the plan does not exercise re-execution", ctx)
		}
		total := len(got.Sim.Trace)
		if live := e.scratch.Live(); live < total/2 {
			t.Fatalf("%s: the encoder's caches start at task %d of %d: finished jobs were not retired", ctx, live, total)
		}
		t.Logf("%s: %d decisions, %d kills; %d union tasks, at most %d live, at most %d rows held", ctx, len(chose), got.Kills, total, peak, held)
	}
}
