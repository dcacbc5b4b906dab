package rl

// Stream training: when Config.Arrivals (or PPOConfig.Arrivals) is set, each
// episode is an online multi-tenant run instead of a single-DAG one. The
// episode's RNG stream — the same (Seed, episodeIndex) splitmix64 derivation
// as single-DAG training — first draws a Poisson arrival stream, then drives
// the policy run on a persistent cluster (internal/stream), so the training
// History keeps the bit-identical-at-any-worker-count contract.
//
// The reward generalises the paper's terminal design from makespan to the
// job-level objective streams are judged on:
//
//	R = (meanResponse(HEFT-per-job) − meanResponse(policy)) / meanResponse(HEFT-per-job),
//
// with the baseline replayed on the SAME arrivals, noise- and fault-free and
// under a fixed RNG — like the single-DAG HEFT projection, it is a pure
// function of the episode's arrival list, so the reward scale never wobbles
// with the baseline's own randomness.

import (
	"fmt"
	"math/rand"

	"readys/internal/core"
	"readys/internal/sim"
	"readys/internal/stream"
)

// streamBaselineSeed fixes the RNG of the σ=0 HEFT-per-job baseline replay
// (the engine shuffles free-resource order from it), making the baseline a
// deterministic function of the arrivals alone.
const streamBaselineSeed = 1

// runStreamEpisode rolls out one stream-training episode on pol, which draws
// from rng. Draw order on rng is fixed — arrivals, fault-plan seed (only when
// faults are enabled, echoing Problem.Simulate's conditional draw), then the
// policy run — so an episode's randomness never depends on rollout scheduling.
func runStreamEpisode(pol *core.Policy, problem core.Problem, proc stream.PoissonProcess, rng *rand.Rand) (makespan, reward float64, err error) {
	arrivals, err := proc.Generate(rng)
	if err != nil {
		return 0, 0, err
	}
	var planSeed int64
	if problem.Faults.Enabled() {
		planSeed = rng.Int63()
	}
	base, err := stream.Run(stream.NewHEFTPerJobPolicy(), stream.Config{
		Platform: problem.Platform,
		Arrivals: arrivals,
		Sigma:    0,
		Rng:      rand.New(rand.NewSource(streamBaselineSeed)),
	})
	if err != nil {
		return 0, 0, fmt.Errorf("stream baseline: %w", err)
	}
	var plan *sim.FaultPlan
	if problem.Faults.Enabled() {
		spec := problem.Faults
		if spec.Horizon <= 0 {
			// Default the horizon off the baseline's full completion time:
			// faults keep arriving while the policy drags past what
			// HEFT-per-job needed for the whole stream.
			spec.Horizon = core.FaultHorizonFactor * base.Makespan
		}
		plan = sim.GeneratePlan(planSeed, problem.Platform.Size(), spec)
	}
	res, err := stream.Run(pol, stream.Config{
		Platform: problem.Platform,
		Arrivals: arrivals,
		Sigma:    problem.Sigma,
		Faults:   plan,
		Rng:      rng,
	})
	if err != nil {
		return 0, 0, err
	}
	return res.Makespan, core.Reward(base.MeanResponse, res.MeanResponse), nil
}
