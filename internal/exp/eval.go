package exp

import (
	"fmt"
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
// under noise; MCT and READYS decide dynamically. A run that fails fails the
// comparison.
func Compare(agent *core.Agent, kind taskgraph.Kind, T, numCPU, numGPU int, sigmas []float64, runs int, seed int64) ([]ComparisonPoint, error) {
	prob := core.Problem{Graph: taskgraph.NewFrozenByKind(kind, T), Platform: platform.New(numCPU, numGPU), Timing: platform.TimingFor(kind)}
	heft := sched.NewStaticPolicy(sched.HEFT(prob.Graph, prob.Platform, prob.Timing))

	// One simulator, one serving policy and two generators serve every run.
	var runner sim.Runner
	rng, polRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	pol := core.NewPolicy(agent)
	pol.Greedy, pol.Temperature, pol.Rng = false, EvalTemperature, polRng
	out := make([]ComparisonPoint, 0, len(sigmas))
	for si, sigma := range sigmas {
		prob.Sigma = sigma
		var rd, hd, md []float64
		for i := 0; i < runs; i++ {
			base := seed + int64(si*1000+i)
			polRng.Seed(base + 7919)
			var err error
			if rd, err = appendMakespan(rd, prob, &runner, pol, rng, base); err != nil {
				return nil, fmt.Errorf("exp: READYS on %s T=%d σ=%g: %w", kind, T, sigma, err)
			}
			if hd, err = appendMakespan(hd, prob, &runner, heft, rng, base); err != nil {
				return nil, fmt.Errorf("exp: HEFT on %s T=%d σ=%g: %w", kind, T, sigma, err)
			}
			if md, err = appendMakespan(md, prob, &runner, sched.MCTPolicy{}, rng, base); err != nil {
				return nil, fmt.Errorf("exp: MCT on %s T=%d σ=%g: %w", kind, T, sigma, err)
			}
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
	return out, nil
}

// appendMakespan is one seed of a figure: it re-seeds rng at seed (Seed
// leaves a generator where rand.NewSource of the same seed starts), runs pol
// once on prob in runner and appends the makespan to ms. A failed run is
// returned, not skipped, so a mean is never taken over fewer seeds than the
// caller asked for.
func appendMakespan(ms []float64, prob core.Problem, runner *sim.Runner, pol sim.Policy, rng *rand.Rand, seed int64) ([]float64, error) {
	rng.Seed(seed)
	res, err := prob.SimulateOn(runner, pol, rng)
	if err != nil {
		return ms, fmt.Errorf("seed %d: %w", seed, err)
	}
	return append(ms, res.Makespan), nil
}
