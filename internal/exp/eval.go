package exp

import (
	"math/rand"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// Sigmas is the noise sweep used by every figure, following the paper's
// "as soon as σ > 0" analysis up to strong noise.
var Sigmas = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}

// EvalRuns is the number of runs/seeds averaged per stochastic data point
// (the paper uses 5).
const EvalRuns = 5

// EvalTemperature is the sampling temperature used when evaluating READYS
// agents. The paper samples actions from the policy distribution (§IV-B);
// with our shorter training budgets the policies keep non-trivial entropy,
// so raw sampling is noisy while pure argmax can lock into rare degenerate
// ∅ loops. Sharpened sampling at τ=0.25 keeps the learned preferences,
// escapes those loops, and is seed-reproducible.
const EvalTemperature = 0.25

// ComparisonPoint is one σ-point of a READYS-vs-baselines comparison.
type ComparisonPoint struct {
	Sigma  float64
	READYS Summary
	HEFT   Summary
	MCT    Summary
	// ImproveHEFT and ImproveMCT are the paper's "makespan improvement"
	// ratios mean(baseline)/mean(READYS): above 1 means READYS wins.
	ImproveHEFT float64
	ImproveMCT  float64
}

// Compare evaluates the agent against HEFT and MCT on the (kind, T, platform)
// problem across the σ sweep, averaging each point over runs seeds. The HEFT
// schedule is computed once from expected durations and replayed statically
// under noise; MCT and READYS decide dynamically.
func Compare(agent *core.Agent, kind taskgraph.Kind, T, numCPU, numGPU int, sigmas []float64, runs int, seed int64) []ComparisonPoint {
	g := taskgraph.NewFrozenByKind(kind, T)
	plat := platform.New(numCPU, numGPU)
	tt := platform.TimingFor(kind)
	heft := sched.HEFT(g, plat, tt)

	// One simulator, one serving policy and two generators serve every run;
	// Seed leaves a generator where rand.NewSource of the same seed starts.
	var runner sim.Runner
	rng, polRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	pol := core.NewPolicy(agent)
	pol.Greedy, pol.Temperature, pol.Rng = false, EvalTemperature, polRng
	out := make([]ComparisonPoint, 0, len(sigmas))
	for si, sigma := range sigmas {
		var rd, hd, md []float64
		for i := 0; i < runs; i++ {
			base := seed + int64(si*1000+i)
			run := func(pol sim.Policy, into *[]float64) {
				rng.Seed(base)
				if res, err := runner.Simulate(g, plat, tt, pol, sim.Options{Sigma: sigma, Rng: rng}); err == nil {
					*into = append(*into, res.Makespan)
				}
			}
			polRng.Seed(base + 7919)
			run(pol, &rd)
			run(sched.NewStaticPolicy(heft), &hd)
			run(sched.MCTPolicy{}, &md)
		}
		pt := ComparisonPoint{
			Sigma:  sigma,
			READYS: Summarise(rd),
			HEFT:   Summarise(hd),
			MCT:    Summarise(md),
		}
		if pt.READYS.Mean > 0 {
			pt.ImproveHEFT = pt.HEFT.Mean / pt.READYS.Mean
			pt.ImproveMCT = pt.MCT.Mean / pt.READYS.Mean
		}
		out = append(out, pt)
	}
	return out
}
