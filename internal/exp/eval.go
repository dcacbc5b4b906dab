package exp

import (
	"fmt"
	"math/rand"

	"readys/internal/core"
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

// scheduler is one column of a comparison: a policy and the name its failed
// runs are reported under.
type scheduler struct {
	name string
	pol  sim.Policy
}

// evaluator runs schedulers over seeded runs for every comparison table. Run
// i of every sweep point has base seed b = seed + i: every scheduler runs on
// the generator seeded at b, and a faulted run replays the plan of
// sim.PlanSeed(b). So the schedulers of one run share their key, and with it
// the duration draw of every (task, attempt) they all start, and their
// faults; and a cell's value does not depend on where it sits in a sweep.
// READYS decides as everywhere else (core.NewPolicy) and draws nothing. One
// simulator and one noise generator serve every run; Seed leaves the
// generator where rand.NewSource of the same seed starts. A failed run fails
// the evaluation, so no mean is ever taken over fewer seeds than the caller
// asked for.
type evaluator struct {
	runner sim.Runner
	rng    *rand.Rand
}

func newEvaluator() *evaluator {
	return &evaluator{rng: rand.New(rand.NewSource(1))}
}

// each runs the seeds of one sweep point: for each run it calls prepare with
// the run's base seed, then run once per scheduler with the noise generator
// seeded for that run. The first error ends the sweep, naming its seed and,
// when a scheduler failed, the scheduler; fewer than one run is an error too.
func (e *evaluator) each(scheds []scheduler, runs int, seed int64, prepare func(base int64) error, run func(s int) error) error {
	if err := CheckCount("runs", runs, 1); err != nil {
		return err
	}
	for i := 0; i < runs; i++ {
		base := seed + int64(i)
		if err := prepare(base); err != nil {
			return fmt.Errorf("seed %d: %w", base, err)
		}
		for s, sc := range scheds {
			e.rng.Seed(base)
			if err := run(s); err != nil {
				return fmt.Errorf("%s, seed %d: %w", sc.name, base, err)
			}
		}
	}
	return nil
}

// makespans runs every scheduler on the cell prob for runs seeds and returns
// ms[s][i], scheduler s's makespan on run i. When the cell's fault spec is
// enabled, each run replays the plan of prob.FaultPlanFor(sim.PlanSeed(b))
// rather than the one Problem.Simulate would draw from the noise generator.
func (e *evaluator) makespans(prob core.Problem, scheds []scheduler, runs int, seed int64) ([][]float64, error) {
	ms := make([][]float64, len(scheds))
	var plan *sim.FaultPlan
	err := e.each(scheds, runs, seed, func(base int64) error {
		plan = prob.FaultPlanFor(sim.PlanSeed(base))
		return nil
	}, func(s int) error {
		res, err := e.runner.Simulate(prob.Graph, prob.Platform, prob.Timing, scheds[s].pol,
			sim.Options{Sigma: prob.Sigma, Rng: e.rng, Faults: plan})
		if err != nil {
			return err
		}
		ms[s] = append(ms[s], res.Makespan)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

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
// schedule is computed from expected durations and replayed statically under
// noise; MCT and READYS decide dynamically. A run that fails fails the
// comparison.
func Compare(agent *core.Agent, kind taskgraph.Kind, T, numCPU, numGPU int, sigmas []float64, runs int, seed int64) ([]ComparisonPoint, error) {
	prob := core.NewProblem(kind, T, numCPU, numGPU, 0)
	e := newEvaluator()
	pol := core.NewPolicy(agent)
	out := make([]ComparisonPoint, 0, len(sigmas))
	for _, sigma := range sigmas {
		prob.Sigma = sigma
		pt, err := e.compare(prob, pol, runs, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: %s T=%d σ=%g: %w", kind, T, sigma, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// compare is one point of Compare: pol against HEFT's static schedule and
// MCT on prob.
func (e *evaluator) compare(prob core.Problem, pol *core.Policy, runs int, seed int64) (ComparisonPoint, error) {
	heft := sched.NewStaticPolicy(sched.HEFT(prob.Graph, prob.Platform, prob.Timing))
	ms, err := e.makespans(prob, []scheduler{{"READYS", pol}, {"HEFT", heft}, {"MCT", sched.MCTPolicy{}}}, runs, seed)
	if err != nil {
		return ComparisonPoint{}, err
	}
	pt := ComparisonPoint{Sigma: prob.Sigma, READYS: Summarise(ms[0]), HEFT: Summarise(ms[1]), MCT: Summarise(ms[2])}
	if pt.READYS.Mean > 0 {
		pt.ImproveHEFT = pt.HEFT.Mean / pt.READYS.Mean
		pt.ImproveMCT = pt.MCT.Mean / pt.READYS.Mean
	}
	return pt, nil
}
