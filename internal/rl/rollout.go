package rl

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"readys/internal/core"
	"readys/internal/sim"
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
//     in fixed episode order; workers only fill episode logs — what differs
//     from decision to decision, actions and forward-pass scalars, no tape.
//     The caller accumulates episode k as soon as its rollout is done, while
//     the workers roll out the rest of the batch: accumulation writes only
//     the parameters' gradients, which rollouts never read, and the
//     parameters themselves change only after the batch's last episode is in.
//
// The memory rollouts run in belongs to the trainer (rolloutPool): an episode
// is recorded into the log of its slot by the policy of whichever worker ran
// it, and both are reused episode after episode. A batch cycles through
// L = min(n, W+1) slots for W workers — one per rollout in flight and one for
// the episode being accumulated — so the logs kept follow the worker count,
// not the batch size: episode k records into slot k mod L once the caller has
// released episode k−L, that is accumulated it and read its statistics.
// Which worker's policy ran an episode, or which log it was recorded in,
// cannot matter: core.Policy.Reset and EpisodeLog.Reset leave nothing of the
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

// rolloutResult is one collected episode: the log holding its recorded
// decisions, valid until the episode is released, plus the episode's outcome.
type rolloutResult struct {
	ep       int
	log      *core.EpisodeLog
	makespan float64
	reward   float64
	entropy  float64
	err      error
}

// rolloutPool is what a trainer keeps from batch to batch so that a warmed
// trainer's rollouts allocate next to nothing: per slot one episode log, its
// result and the signal that the result is in, and per rollout worker one
// resident training policy, the simulator memory it rolls out in and the
// generator it draws from, re-seeded for every episode.
type rolloutPool struct {
	logs    []*core.EpisodeLog
	ready   []chan struct{}
	results []rolloutResult
	workers []*rolloutWorker

	// Of the batch being collected: how many episodes it has, how many slots
	// it cycles through, the next episode to claim and the running workers.
	n, slots int
	next     atomic.Int64
	running  sync.WaitGroup

	// mu guards released — the episodes of the batch the caller is done
	// with — and stopped; freed is signalled when either changes.
	mu       sync.Mutex
	freed    sync.Cond
	released int
	stopped  bool
}

type rolloutWorker struct {
	pol *core.Policy
	rng *rand.Rand
	run sim.Runner
}

// collect starts rolling out episodes [start, start+n) of t's training
// schedule on the pool's workers and returns at once. Workers claim episodes
// in order, so episode 0 is the first to finish; wait hands over each result
// as it is in, release hands its slot on, and stop must be called before the
// pool collects again. The results are identical to a sequential run's by
// construction (per-episode RNG streams, no shared mutable state beyond the
// agent's parameters, which rollouts only read). Config.Arrivals switches
// every episode to the stream rollout (see stream.go).
func (rp *rolloutPool) collect(t *Trainer, start, n int) {
	workers := t.Cfg.RolloutWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)
	slots := min(n, workers+1)
	for len(rp.logs) < slots {
		rp.logs = append(rp.logs, core.NewEpisodeLog())
		rp.ready = append(rp.ready, make(chan struct{}, 1))
		rp.results = append(rp.results, rolloutResult{})
	}
	for len(rp.workers) < workers {
		rp.workers = append(rp.workers, &rolloutWorker{rng: rand.New(rand.NewSource(0))})
	}
	for _, w := range rp.workers[:workers] {
		if w.pol == nil || w.pol.Agent != t.Agent {
			w.pol = core.NewTrainingPolicy(t.Agent, w.rng)
		}
	}
	rp.n, rp.slots = n, slots
	rp.next.Store(0)
	rp.freed.L = &rp.mu
	rp.released, rp.stopped = 0, false
	rp.running.Add(workers)
	for _, w := range rp.workers[:workers] {
		go rp.work(t, w, start)
	}
}

// work rolls out the episodes w claims until none is left or the pool is
// stopped.
func (rp *rolloutPool) work(t *Trainer, w *rolloutWorker, start int) {
	defer rp.running.Done()
	for {
		k := int(rp.next.Add(1) - 1)
		if k >= rp.n || !rp.await(k) {
			return
		}
		s, ep := k%rp.slots, start+k
		// Seed leaves the generator where rand.NewSource(seed) starts.
		pol, rng := w.pol, w.rng
		rng.Seed(episodeSeed(t.Cfg.Seed, ep))
		pol.Log = rp.logs[s]
		r := rolloutResult{ep: ep, log: pol.Log}
		if t.Cfg.Arrivals != nil {
			r.makespan, r.reward, r.err = runStreamEpisode(pol, t.Problem, *t.Cfg.Arrivals, rng)
		} else {
			var res sim.Result
			if res, r.err = t.Problem.SimulateOn(&w.run, pol, rng); r.err == nil {
				r.makespan, r.reward = res.Makespan, core.Reward(t.baseline, res.Makespan)
			}
		}
		if r.err == nil {
			r.entropy = pol.MeanEntropy()
		}
		rp.results[s] = r
		rp.ready[s] <- struct{}{}
	}
}

// await blocks until episode k's slot is free — episode k−slots has been
// released — and reports whether the pool is still collecting.
func (rp *rolloutPool) await(k int) bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for rp.released <= k-rp.slots && !rp.stopped {
		rp.freed.Wait()
	}
	return !rp.stopped
}

// wait returns episode k's result once its rollout is done. It is valid until
// the episode is released.
func (rp *rolloutPool) wait(k int) *rolloutResult {
	s := k % rp.slots
	<-rp.ready[s]
	return &rp.results[s]
}

// release hands episode k's slot, its result and its log, on to episode
// k+slots. Episodes are released in order.
func (rp *rolloutPool) release(k int) {
	rp.mu.Lock()
	rp.released = k + 1
	rp.mu.Unlock()
	rp.freed.Broadcast()
}

// stop lets no worker start another episode, wakes the ones waiting for a
// slot, waits for the rollouts in flight and clears the signals of slots no
// one waited for. Once it returns, no worker of the batch touches the pool
// and every slot is free for the next batch.
func (rp *rolloutPool) stop() {
	rp.mu.Lock()
	rp.stopped = true
	rp.mu.Unlock()
	rp.freed.Broadcast()
	rp.running.Wait()
	for _, c := range rp.ready[:rp.slots] {
		select {
		case <-c:
		default:
		}
	}
}
