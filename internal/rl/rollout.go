package rl

import (
	"math/rand"
	"runtime"
	"sync"

	"readys/internal/core"
	"readys/internal/stream"
)

// Parallel rollout collection.
//
// Between gradient updates, the episodes of a batch are independent: a
// rollout only reads the agent's parameters (core.NewTrainingPolicy runs the
// tape-free serving engine), so rollouts can run concurrently A3C-style. Two
// rules keep the training History bit-identical to a sequential run at any
// worker count:
//
//  1. Every episode draws from its own RNG stream seeded by (Seed,
//     episodeIndex) — episodeSeed below — so an episode's randomness never
//     depends on which worker ran it or what ran before it.
//  2. Gradient accumulation and statistics happen on the caller's goroutine
//     in fixed episode order after the batch barrier; workers only produce
//     recorded steps — state copies, actions and forward-pass scalars, no
//     tape — so what a batch holds across the barrier is its states.

// episodeSeed derives episode ep's RNG seed from the trainer seed with a
// splitmix64-style finaliser, decorrelating consecutive episodes and
// consecutive trainer seeds.
func episodeSeed(seed int64, ep int) int64 {
	z := uint64(seed) + (uint64(ep)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// resolveWorkers maps a RolloutWorkers config value to an effective worker
// count (0 or negative selects GOMAXPROCS).
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// rolloutResult is one collected episode: the recorded decisions plus the
// episode's outcome.
type rolloutResult struct {
	ep       int
	steps    []core.Step
	makespan float64
	reward   float64
	entropy  float64
	err      error
}

// collectRollouts runs episodes [start, start+n) of the training schedule and
// returns their results indexed by position. With workers > 1 the episodes
// run concurrently on a bounded worker pool; results are identical to the
// sequential path by construction (per-episode RNG streams, no shared mutable
// state beyond the read-only agent parameters). A non-nil arrivals process
// switches every episode to the stream rollout (see stream.go).
func collectRollouts(agent *core.Agent, problem core.Problem, arrivals *stream.PoissonProcess, baseline float64, seed int64, start, n, workers int) []rolloutResult {
	results := make([]rolloutResult, n)
	runOne := func(k int) {
		ep := start + k
		rng := rand.New(rand.NewSource(episodeSeed(seed, ep)))
		if arrivals != nil {
			results[k] = runStreamEpisode(agent, problem, *arrivals, ep, rng)
			return
		}
		pol := core.NewTrainingPolicy(agent, rng)
		res, err := problem.Simulate(pol, rng)
		r := rolloutResult{ep: ep, steps: pol.Steps, err: err}
		if err == nil {
			r.makespan = res.Makespan
			r.reward = core.Reward(baseline, res.Makespan)
			r.entropy = pol.MeanEntropy()
		}
		results[k] = r
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for k := 0; k < n; k++ {
			runOne(k)
		}
		return results
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				runOne(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		idx <- k
	}
	close(idx)
	wg.Wait()
	return results
}
