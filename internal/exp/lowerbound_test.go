package exp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// lowerBound is the larger of two lower bounds on any makespan of g on plat
// at σ = 0:
//   - the critical path, with every task on its fastest type the platform
//     has;
//   - the two-type fractional area bound: a task may be split between the
//     types, the tasks the GPU speeds up most go to the GPUs first, and the
//     split is where the two types' loads per resource cross.
//
// Faults only slow a run down — degrades stretch, kills repeat work — so the
// bound holds under any fault plan too.
func lowerBound(g *taskgraph.Graph, plat platform.Platform, tt platform.Timing) float64 {
	var m [platform.NumResourceTypes]float64
	for _, r := range plat.Resources {
		m[r.Type]++
	}
	dur := func(i int, rt platform.ResourceType) float64 { return tt.ExpectedDuration(g.Tasks[i].Kernel, rt) }

	order, err := g.ReverseTopoFrom(0, nil)
	if err != nil {
		panic(err)
	}
	tail := make([]float64, g.NumTasks())
	var path float64
	for _, i := range order {
		w := math.Inf(1)
		for rt := platform.ResourceType(0); rt < platform.NumResourceTypes; rt++ {
			if m[rt] > 0 {
				w = min(w, dur(i, rt))
			}
		}
		var next float64
		for _, j := range g.Succ[i] {
			next = max(next, tail[j])
		}
		tail[i] = w + next
		path = max(path, tail[i])
	}

	mc, mg := m[platform.CPU], m[platform.GPU]
	var cpu, gpu float64
	for i := range g.Tasks {
		cpu += dur(i, platform.CPU)
	}
	if mg == 0 {
		return max(path, cpu/mc)
	}
	if mc == 0 {
		for i := range g.Tasks {
			gpu += dur(i, platform.GPU)
		}
		return max(path, gpu/mg)
	}
	byGain := make([]int, g.NumTasks())
	for i := range byGain {
		byGain[i] = i
	}
	sort.Slice(byGain, func(a, b int) bool {
		i, j := byGain[a], byGain[b]
		return dur(i, platform.CPU)/dur(i, platform.GPU) > dur(j, platform.CPU)/dur(j, platform.GPU)
	})
	area := 0.0
	for _, i := range byGain {
		c, w := dur(i, platform.CPU), dur(i, platform.GPU)
		if (cpu-c)/mc < (gpu+w)/mg {
			// The loads cross inside task i: move the fraction f that
			// evens them.
			f := (cpu/mc - gpu/mg) / (c/mc + w/mg)
			area = (gpu + f*w) / mg
			break
		}
		cpu, gpu = cpu-c, gpu+w
		area = gpu / mg
	}
	return max(path, area)
}

// TestLowerBoundByHand checks the bound where it can be worked out on paper.
func TestLowerBoundByHand(t *testing.T) {
	chol := platform.TimingFor(taskgraph.Cholesky)
	// Cholesky T=2 is the chain POTRF → TRSM → SYRK → POTRF. On GPUs it takes
	// 8 + 2.9 + 1.6 + 8 = 20.5 ms, on CPUs only 16 + 44 + 42 + 16 = 118 ms;
	// the area bound is lower on both.
	g := taskgraph.NewFrozenByKind(taskgraph.Cholesky, 2)
	for _, c := range []struct {
		plat platform.Platform
		want float64
	}{{platform.New(2, 2), 20.5}, {platform.New(4, 0), 118}, {platform.New(0, 4), 20.5}} {
		if got := lowerBound(g, c.plat, chol); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Cholesky T=2 on %v: bound %v, want %v", c.plat, got, c.want)
		}
	}
	// Four independent GEMMs (88 ms on a CPU, 3 ms on a GPU) on one CPU and
	// one GPU: three go to the GPU whole, and the fourth splits where
	// 88(1 − f) = 9 + 3f, so f = 79/91 and the bound is 88·12/91 ms.
	wide := taskgraph.NewCustom(taskgraph.Cholesky, taskgraph.KernelNamesFor(taskgraph.Cholesky))
	for i := 0; i < 4; i++ {
		wide.AddTask(taskgraph.KGEMM, "gemm")
	}
	if got, want := lowerBound(wide, platform.New(1, 1), chol), 88*12.0/91; math.Abs(got-want) > 1e-12 {
		t.Fatalf("four GEMMs on 1c1g: bound %v, want %v", got, want)
	}
}

// TestMakespanAtLeastLowerBound is the yardstick's oracle: at σ = 0 no
// scheduler beats lowerBound, with or without faults. It covers the three
// factorisations at two sizes on 2c2g, 4c0g and 0c4g, three seeds and five
// schedulers each (HEFT, MCT, re-planning HEFT, FIFO and READYS) — 540 runs.
// A simulator that shortens a duration — a kernel or resource type read off
// by one, a speed factor dropped — falls below the bound somewhere in them.
func TestMakespanAtLeastLowerBound(t *testing.T) {
	agent, err := LoadAgent(DefaultAgentSpec(taskgraph.Cholesky, 4, 2, 2), "../../models")
	if err != nil {
		t.Fatal(err)
	}
	readys := core.NewPolicy(agent)
	var rn sim.Runner
	runs := 0
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		tt := platform.TimingFor(kind)
		for _, T := range []int{2, 4} {
			g := taskgraph.NewFrozenByKind(kind, T)
			for _, plat := range []platform.Platform{platform.New(2, 2), platform.New(4, 0), platform.New(0, 4)} {
				bound := lowerBound(g, plat, tt)
				heft := sched.HEFT(g, plat, tt)
				for _, rate := range []float64{0, 1.5} {
					for seed := int64(1); seed <= 3; seed++ {
						var plan *sim.FaultPlan
						if rate > 0 {
							plan = sim.GeneratePlan(sim.PlanSeed(seed), plat.Size(), sim.SpecForRate(rate, core.FaultHorizonFactor*heft.Makespan))
						}
						for _, pol := range []sim.Policy{
							sched.NewStaticPolicy(heft), sched.MCTPolicy{}, sched.NewReplanHEFTPolicy(), sched.FIFOPolicy{}, readys,
						} {
							res, err := rn.Simulate(g, plat, tt, pol, sim.Options{Rng: rand.New(rand.NewSource(seed)), Faults: plan})
							if err != nil {
								t.Fatalf("%v T=%d on %v, fault rate %g, seed %d, %T: %v", kind, T, plat, rate, seed, pol, err)
							}
							if res.Makespan < bound-1e-9 {
								t.Fatalf("%v T=%d on %v, fault rate %g, seed %d, %T: makespan %v below the lower bound %v",
									kind, T, plat, rate, seed, pol, res.Makespan, bound)
							}
							runs++
						}
					}
				}
			}
		}
	}
	if runs < 500 {
		t.Fatalf("%d runs, want at least 500", runs)
	}
}
