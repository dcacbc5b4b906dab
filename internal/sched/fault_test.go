package sched

import (
	"math/rand"
	"testing"

	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// faultOpts runs a policy against a fixed fault plan and strictly validates
// the outcome.
func runUnderFaults(t *testing.T, pol sim.Policy, plan *sim.FaultPlan, seed int64) sim.Result {
	t.Helper()
	g, plat, tim := setup(taskgraph.Cholesky, 5, 2, 2)
	res, err := sim.Simulate(g, plat, tim, pol, sim.Options{Rng: rand.New(rand.NewSource(seed)), Faults: plan})
	if err != nil {
		t.Fatalf("%T under faults: %v", pol, err)
	}
	if err := sim.ValidateResultStrict(g, res, sim.CheckOptions{Platform: plat, Timing: tim, Faults: plan}); err != nil {
		t.Fatalf("%T produced invalid faulty schedule: %v", pol, err)
	}
	return res
}

func TestMCTFamilyCompletesUnderDeathAndOutage(t *testing.T) {
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{Kind: sim.FaultDeath, Resource: 2, At: 30},                 // a GPU dies early
		{Kind: sim.FaultOutage, Resource: 0, At: 10, Duration: 60},  // a CPU blinks out
		{Kind: sim.FaultDegrade, Resource: 3, At: 20, Factor: 2.5},  // the other GPU slows
		{Kind: sim.FaultOutage, Resource: 1, At: 100, Duration: 20}, // late CPU outage
	}}
	runUnderFaults(t, MCTPolicy{}, plan, 3)
}

func TestReplanHEFTSurvivesResourceDeath(t *testing.T) {
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{Kind: sim.FaultDeath, Resource: 3, At: 15},
		{Kind: sim.FaultDeath, Resource: 1, At: 40},
	}}
	runUnderFaults(t, NewReplanHEFTPolicy(), plan, 5)
}

func TestStaticHEFTSurvivesResourceDeath(t *testing.T) {
	// The static plan prescribes work to resources that die; the forced-round
	// fallback must keep the run alive, at a (possibly steep) makespan cost —
	// that cost is the fragility the resilience benchmark measures.
	g, plat, tim := setup(taskgraph.Cholesky, 5, 2, 2)
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{Kind: sim.FaultDeath, Resource: 3, At: 5},
		{Kind: sim.FaultOutage, Resource: 0, At: 20, Duration: 50},
	}}
	pol := NewStaticPolicy(HEFT(g, plat, tim))
	res, err := sim.Simulate(g, plat, tim, pol, sim.Options{Rng: rand.New(rand.NewSource(2)), Faults: plan})
	if err != nil {
		t.Fatalf("static HEFT under faults: %v", err)
	}
	if err := sim.ValidateResultStrict(g, res, sim.CheckOptions{Platform: plat, Timing: tim, Faults: plan}); err != nil {
		t.Fatal(err)
	}
	// Its plan was built for 4 resources; losing a GPU must cost makespan
	// versus the fault-free execution.
	clean, err := sim.Simulate(g, plat, tim, NewStaticPolicy(HEFT(g, plat, tim)),
		sim.Options{Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= clean.Makespan {
		t.Fatalf("faulty makespan %v not worse than clean %v", res.Makespan, clean.Makespan)
	}
}

func TestReplanHEFTBeatsStaticUnderDeath(t *testing.T) {
	// The whole point of epoch-keyed replanning: losing a GPU early should
	// hurt the adaptive planner no more than the static plan.
	g, plat, tim := setup(taskgraph.Cholesky, 6, 2, 2)
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{{Kind: sim.FaultDeath, Resource: 3, At: 5}}}
	static, err := sim.Simulate(g, plat, tim, NewStaticPolicy(HEFT(g, plat, tim)),
		sim.Options{Rng: rand.New(rand.NewSource(1)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	replan, err := sim.Simulate(g, plat, tim, NewReplanHEFTPolicy(),
		sim.Options{Rng: rand.New(rand.NewSource(1)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if replan.Makespan > static.Makespan+1e-9 {
		t.Fatalf("replanning (%v) worse than static plan (%v) under early GPU death",
			replan.Makespan, static.Makespan)
	}
}
