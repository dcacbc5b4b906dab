package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

func TestReplanHEFTValidAcrossFamilies(t *testing.T) {
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		g, plat, tt := setup(kind, 5, 2, 2)
		for _, sigma := range []float64{0, 0.4} {
			res, err := sim.Simulate(g, plat, tt, NewReplanHEFTPolicy(), sim.Options{
				Sigma: sigma, Rng: rand.New(rand.NewSource(1)),
			})
			if err != nil {
				t.Fatalf("%v σ=%v: %v", kind, sigma, err)
			}
			if err := sim.ValidateResult(g, plat.Size(), res); err != nil {
				t.Fatalf("%v σ=%v: %v", kind, sigma, err)
			}
		}
	}
}

// firstPlan records a copy of the plan its ReplanHEFT makes at the run's
// first decision; later re-plans overwrite the policy's own.
type firstPlan struct {
	*ReplanHEFTPolicy
	plan *HEFTSchedule
}

func (f *firstPlan) Decide(s *sim.State, r int) int {
	t := f.ReplanHEFTPolicy.Decide(s, r)
	if f.plan == nil {
		p := f.cursor.Schedule
		f.plan = &HEFTSchedule{
			Assignment: slices.Clone(p.Assignment),
			ProjStart:  slices.Clone(p.ProjStart),
			ProjEnd:    slices.Clone(p.ProjEnd),
		}
		for _, tl := range p.Order {
			f.plan.Order = append(f.plan.Order, slices.Clone(tl))
		}
	}
	return t
}

func TestReplanHEFTMatchesHEFTAtSigmaZero(t *testing.T) {
	// At time 0 nothing has started, so re-planning runs HEFT's own
	// placement from the same ranks and must yield HEFT's plan bit for bit;
	// without noise nothing drifts afterwards either, so the makespan must
	// reproduce the static HEFT one up to equal-rank tie-breaks.
	type problem struct {
		name string
		g    *taskgraph.Graph
		plat platform.Platform
		tt   platform.Timing
	}
	var problems []problem
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		for _, pl := range [][2]int{{2, 2}, {4, 0}} {
			g, plat, tt := setup(kind, 6, pl[0], pl[1])
			problems = append(problems, problem{fmt.Sprintf("%v/%dc%dg", kind, pl[0], pl[1]), g, plat, tt})
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		g := taskgraph.NewLayeredRandom(rand.New(rand.NewSource(seed)), taskgraph.DefaultRandomConfig())
		problems = append(problems, problem{fmt.Sprintf("random/%d", seed), g, platform.New(2, 2), platform.TimingFor(taskgraph.Random)})
	}
	bitsEqual := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, pr := range problems {
		h := HEFT(pr.g, pr.plat, pr.tt)
		pol := &firstPlan{ReplanHEFTPolicy: NewReplanHEFTPolicy()}
		res, err := sim.Simulate(pr.g, pr.plat, pr.tt, pol, sim.Options{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		first := pol.plan
		if !reflect.DeepEqual(first.Assignment, h.Assignment) || !reflect.DeepEqual(first.Order, h.Order) {
			t.Fatalf("%s: first re-plan places differently from HEFT:\nassignment %v\nwant       %v\norder %v\nwant  %v",
				pr.name, first.Assignment, h.Assignment, first.Order, h.Order)
		}
		if !bitsEqual(first.ProjStart, h.ProjStart) || !bitsEqual(first.ProjEnd, h.ProjEnd) {
			t.Fatalf("%s: first re-plan projects differently from HEFT:\nstart %v\nwant  %v\nend %v\nwant %v",
				pr.name, first.ProjStart, h.ProjStart, first.ProjEnd, h.ProjEnd)
		}
		if math.Abs(res.Makespan-h.Makespan) > 0.05*h.Makespan {
			t.Fatalf("%s: replan %.1f deviates from static HEFT %.1f at σ=0", pr.name, res.Makespan, h.Makespan)
		}
	}
}

func TestReplanHEFTBeatsStaticUnderStrongNoise(t *testing.T) {
	// Re-planning adapts; the static replay cannot. Averaged over seeds the
	// adaptive variant must not be worse.
	g, plat, tt := setup(taskgraph.Cholesky, 8, 2, 2)
	h := HEFT(g, plat, tt)
	var staticSum, replanSum float64
	const runs = 15
	for i := 0; i < runs; i++ {
		rs, err := sim.Simulate(g, plat, tt, NewStaticPolicy(h), sim.Options{
			Sigma: 0.6, Rng: rand.New(rand.NewSource(int64(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		staticSum += rs.Makespan
		rr, err := sim.Simulate(g, plat, tt, NewReplanHEFTPolicy(), sim.Options{
			Sigma: 0.6, Rng: rand.New(rand.NewSource(int64(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		replanSum += rr.Makespan
	}
	if replanSum > staticSum*1.02 {
		t.Fatalf("replanning HEFT (%.0f) worse than static (%.0f) under noise", replanSum/runs, staticSum/runs)
	}
}

func TestReplanHEFTResetBetweenEpisodes(t *testing.T) {
	g, plat, tt := setup(taskgraph.LU, 4, 2, 2)
	pol := NewReplanHEFTPolicy()
	for i := 0; i < 3; i++ {
		res, err := sim.Simulate(g, plat, tt, pol, sim.Options{Sigma: 0.3, Rng: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			t.Fatalf("episode %d: %v", i, err)
		}
		if err := sim.ValidateResult(g, plat.Size(), res); err != nil {
			t.Fatalf("episode %d: %v", i, err)
		}
	}
}
