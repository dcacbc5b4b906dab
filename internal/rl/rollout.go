package rl

import (
	"math/rand"
	"runtime"
	"sync"

	"readys/internal/core"
	"readys/internal/sim"
	"readys/internal/stream"
)

// Parallel rollout collection.
//
// Between gradient updates, the episodes of a batch are independent: a
// rollout only reads the agent's parameters (a core.NewTrainingPolicy runs its
// forwards on its own inference tape), so rollouts can run concurrently
// A3C-style. Two
// rules keep the training History bit-identical to a sequential run at any
// worker count:
//
//  1. Every episode draws from its own RNG stream seeded by (Seed,
//     episodeIndex) — episodeSeed below — so an episode's randomness never
//     depends on which worker ran it or what ran before it.
//  2. Gradient accumulation and statistics happen on the caller's goroutine
//     in fixed episode order after the batch barrier; workers only fill
//     episode logs — what differs from decision to decision, actions and
//     forward-pass scalars, no tape.
//
// The memory rollouts run in belongs to the trainer (rolloutPool): an episode
// is recorded into the log of its batch slot by the policy of whichever
// worker ran it, and both are reused batch after batch. Which worker's policy
// ran an episode cannot matter: core.Policy.Reset leaves nothing of the
// previous episode but allocated memory, and the worker's generator is
// re-seeded from (Seed, episodeIndex).

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

// rolloutResult is one collected episode: the log holding its recorded
// decisions, valid until the pool collects again, plus the episode's outcome.
type rolloutResult struct {
	ep       int
	log      *core.EpisodeLog
	makespan float64
	reward   float64
	entropy  float64
	err      error
}

// rolloutPool is what a trainer keeps from batch to batch so that a warmed
// trainer's rollouts allocate next to nothing: one episode log per slot of
// the batch, and per rollout worker one resident training policy, the
// simulator memory it rolls out in and the generator it draws from, re-seeded
// for every episode.
type rolloutPool struct {
	logs    []*core.EpisodeLog
	workers []*rolloutWorker
	results []rolloutResult
}

type rolloutWorker struct {
	pol *core.Policy
	rng *rand.Rand
	run sim.Runner
}

// collect runs episodes [start, start+n) of the training schedule and
// returns their results indexed by position, valid until the next collect.
// With workers > 1 the episodes run concurrently on a bounded worker pool;
// results are identical to the sequential path by construction (per-episode
// RNG streams, no shared mutable state beyond the read-only agent
// parameters). A non-nil arrivals process switches every episode to the
// stream rollout (see stream.go).
func (rp *rolloutPool) collect(agent *core.Agent, problem core.Problem, arrivals *stream.PoissonProcess, baseline float64, seed int64, start, n, workers int) []rolloutResult {
	if workers > n {
		workers = n
	}
	workers = max(workers, 1)
	for len(rp.logs) < n {
		rp.logs = append(rp.logs, core.NewEpisodeLog())
	}
	for len(rp.workers) < workers {
		rp.workers = append(rp.workers, &rolloutWorker{rng: rand.New(rand.NewSource(0))})
	}
	for _, w := range rp.workers[:workers] {
		if w.pol == nil || w.pol.Agent != agent {
			w.pol = core.NewTrainingPolicy(agent, w.rng)
		}
	}
	if cap(rp.results) < n {
		rp.results = make([]rolloutResult, n)
	}
	results := rp.results[:n]

	runOne := func(w *rolloutWorker, k int) {
		ep := start + k
		// Seed leaves the generator where rand.NewSource(seed) starts.
		pol, rng := w.pol, w.rng
		rng.Seed(episodeSeed(seed, ep))
		pol.Log = rp.logs[k]
		r := rolloutResult{ep: ep, log: pol.Log}
		if arrivals != nil {
			r.makespan, r.reward, r.err = runStreamEpisode(pol, problem, *arrivals, rng)
		} else {
			var res sim.Result
			if res, r.err = problem.SimulateOn(&w.run, pol, rng); r.err == nil {
				r.makespan, r.reward = res.Makespan, core.Reward(baseline, res.Makespan)
			}
		}
		if r.err == nil {
			r.entropy = pol.MeanEntropy()
		}
		results[k] = r
	}
	if workers == 1 {
		for k := 0; k < n; k++ {
			runOne(rp.workers[0], k)
		}
		return results
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for _, w := range rp.workers[:workers] {
		wg.Add(1)
		go func(w *rolloutWorker) {
			defer wg.Done()
			for k := range idx {
				runOne(w, k)
			}
		}(w)
	}
	for k := 0; k < n; k++ {
		idx <- k
	}
	close(idx)
	wg.Wait()
	return results
}
