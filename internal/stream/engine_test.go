package stream

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// idleUntilForced answers ∅ unless the engine forces a start, then starts the
// lowest-numbered ready task: every decision round ends in a forced one.
type idleUntilForced struct{}

func (idleUntilForced) Reset(*sim.State) {}
func (idleUntilForced) Decide(s *sim.State, _ int) int {
	if s.MustAct {
		return s.Ready[0]
	}
	return sim.NoTask
}

// TestSimulateMatchesSingleJobCluster: a cluster given one job at time 0 and
// drained runs Simulate's event loop, so it must schedule the job exactly as
// Simulate does — the same error, makespan bits, decision counts, trace and
// kills — whatever the factorisation, noise, fault plan and policy. The
// ∅-until-forced policy and HEFT under faults reach forced rounds, after which
// both must advance to the next event rather than ask the free resources again.
func TestSimulateMatchesSingleJobCluster(t *testing.T) {
	plat := platform.New(2, 2)
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 4})
	cases, differ := 0, 0
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		g := taskgraph.NewFrozenByKind(kind, 4)
		tt := platform.TimingFor(kind)
		heft := sched.HEFT(g, plat, tt)
		policies := []struct {
			name string
			mk   func() sim.Policy
		}{
			{"heft", func() sim.Policy { return sched.NewStaticPolicy(heft) }},
			{"mct", func() sim.Policy { return sched.MCTPolicy{} }},
			{"replanheft", func() sim.Policy { return sched.NewReplanHEFTPolicy() }},
			{"readys", func() sim.Policy { return core.NewPolicy(agent) }},
			{"idle-until-forced", func() sim.Policy { return idleUntilForced{} }},
		}
		for _, sigma := range []float64{0, 0.3} {
			for _, faulted := range []bool{false, true} {
				for seed := int64(1); seed <= 8; seed++ {
					var plan *sim.FaultPlan
					if faulted {
						plan = sim.GeneratePlan(seed, plat.Size(), sim.SpecForRate(1, 2*heft.Makespan))
					}
					for _, p := range policies {
						cases++
						name := fmt.Sprintf("%v σ=%v faults=%v seed=%d %s", kind, sigma, faulted, seed, p.name)
						want, wantErr := sim.Simulate(g, plat, tt, p.mk(), sim.Options{Sigma: sigma, Rng: rand.New(rand.NewSource(seed)), Faults: plan})
						got, gotErr := singleJobCluster(t, g, plat, tt, p.mk(), sim.Options{Sigma: sigma, Rng: rand.New(rand.NewSource(seed)), Faults: plan})
						if diff := resultDiff(want, wantErr, got, gotErr); diff != "" {
							differ++
							if differ <= 5 {
								t.Errorf("%s: %s", name, diff)
							}
						}
					}
				}
			}
		}
	}
	if differ > 0 {
		t.Errorf("a one-job cluster differs from Simulate in %d of %d cases", differ, cases)
	}
}

// singleJobCluster schedules g as the only job of a new cluster, arriving at
// time 0, and drains it.
func singleJobCluster(t *testing.T, g *taskgraph.Graph, plat platform.Platform, tt platform.Timing, pol sim.Policy, opt sim.Options) (sim.Result, error) {
	t.Helper()
	cl, err := sim.NewCluster(plat, opt)
	if err != nil {
		t.Fatal(err)
	}
	pol.Reset(cl.State())
	if _, err := cl.AddJob(0, g, tt); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(pol); err != nil {
		return sim.Result{}, err
	}
	return cl.Result(), nil
}

// resultDiff names the first way two runs differ, or returns "".
func resultDiff(want sim.Result, wantErr error, got sim.Result, gotErr error) string {
	switch {
	case fmt.Sprint(wantErr) != fmt.Sprint(gotErr):
		return fmt.Sprintf("error %v, Simulate's %v", gotErr, wantErr)
	case wantErr != nil:
		return ""
	case math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan):
		return fmt.Sprintf("makespan %v, Simulate's %v", got.Makespan, want.Makespan)
	case got.Decisions != want.Decisions || got.IdleDecisions != want.IdleDecisions || got.ForcedPhases != want.ForcedPhases:
		return fmt.Sprintf("decisions/idle/forced %d/%d/%d, Simulate's %d/%d/%d",
			got.Decisions, got.IdleDecisions, got.ForcedPhases, want.Decisions, want.IdleDecisions, want.ForcedPhases)
	case !reflect.DeepEqual(got.Trace, want.Trace):
		return "trace differs"
	case !reflect.DeepEqual(got.Kills, want.Kills):
		return fmt.Sprintf("%d kills, Simulate's %d", len(got.Kills), len(want.Kills))
	}
	return ""
}

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
