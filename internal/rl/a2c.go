// Package rl implements the advantage actor-critic (A2C) training algorithm
// used by READYS (§IV-A): episodes are rolled out with the sampling policy,
// the terminal reward R = (makespan(HEFT) − makespan)/makespan(HEFT) is
// discounted back through the decisions, and each decision contributes
//
//	loss = −log π(aₜ|sₜ)·Âₜ + valueScale·(V(sₜ) − Rₜ)² − β·H(π(·|sₜ))
//
// with Âₜ = Rₜ − V(sₜ) (advantage, treated as a constant in the policy term)
// and H the policy entropy (exploration bonus [49]). Gradients are
// accumulated over a batch of episodes, clipped, and applied with Adam.
//
// Rollouts run off the tape (core.NewTrainingPolicy) and record their
// decisions in episode logs the trainer owns (core.EpisodeLog); the update
// stacks an episode's states out of its log and evaluates network and loss on
// one tape at batch width d (core.Agent.ForwardBatch) — one forward, one
// backward — with every reduction taken decision by decision, so the
// gradients are bit for bit the sum, in decision order, of the per-decision
// gradients.
package rl

import (
	"fmt"
	"math"

	"readys/internal/core"
	"readys/internal/nn"
	"readys/internal/obs"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/tensor"
)

// maxPassRows caps the stacked node rows of one tape pass. The update's tape
// keeps its buffers from pass to pass — a few dozen of rows x hidden floats —
// so the cap bounds what a trainer retains whatever the episode length; an
// episode beyond it takes several passes of about equal height over
// consecutive decisions (passSplit), whose gradients add up in the same order.
// EXPERIMENTS.md → "Current cost" has the caps measured against each other
// (TestUpdateTapeRetainsBounded holds the tape to this one).
const maxPassRows = 512

// Config holds the A2C hyper-parameters. Defaults follow §V-D.
type Config struct {
	// Episodes is the total number of training episodes.
	Episodes int
	// BatchEpisodes is the number of episodes per gradient update.
	BatchEpisodes int
	// Gamma is the discount factor (0.99 in the paper).
	Gamma float64
	// EntropyBeta scales the entropy bonus (paper grid: 1e-3, 5e-3, 1e-2).
	EntropyBeta float64
	// ValueScale scales the critic loss (0.5 in the paper).
	ValueScale float64
	// LR is the Adam learning rate (0.01 in the paper).
	LR float64
	// ClipNorm bounds the global gradient norm (0 disables clipping).
	ClipNorm float64
	// Unroll is the n-step bootstrap horizon: value targets use
	// γⁿ·V(s_{t+n}) until the terminal reward takes over. 0 means full
	// Monte-Carlo returns (paper grid: 20, 40, 60, 80).
	Unroll int
	// Seed drives episode randomness (noise, sampling). Each episode uses
	// its own stream derived from (Seed, episodeIndex), so results do not
	// depend on rollout scheduling.
	Seed int64
	// RolloutWorkers is the number of episodes of each batch rolled out
	// concurrently (0 selects GOMAXPROCS), beside the update, which
	// accumulates each episode as soon as it is in. W workers record into
	// min(BatchEpisodes, W+1) episode logs the trainer keeps: a log goes to
	// the next episode once the update has accumulated the one it holds. The
	// training History is bit-identical at any worker count: per-episode RNG
	// streams plus fixed-order gradient accumulation.
	RolloutWorkers int
	// Faults, when enabled, trains under fault injection: each episode
	// derives its own fault plan (outages, deaths, degradation) from its
	// (Seed, episodeIndex) RNG stream, so fault streams — like duration
	// noise — are bit-reproducible at any worker count. The zero value
	// trains fault-free.
	Faults sim.FaultSpec
	// Arrivals, when non-nil, trains on streaming job arrivals instead of the
	// problem's single DAG: each episode draws its own Poisson arrival stream
	// from its (Seed, episodeIndex) RNG and schedules it on a persistent
	// cluster under the problem's platform, σ and fault spec. The terminal
	// reward compares the policy's mean job response time against a
	// HEFT-per-job replay of the same arrivals (see stream.go); the problem's
	// Graph and Timing are ignored and History.BaselineMakespan stays 0
	// (baselines are per-episode). Worker-count bit-identity holds unchanged.
	Arrivals *stream.PoissonProcess
}

// DefaultConfig returns the hyper-parameters used throughout the experiment
// harness. γ, the value-loss scale and the entropy grid follow §V-D; the
// learning rate is 0.003 rather than the paper's 0.01 — with our float64
// from-scratch Adam the paper's rate oscillates, while 0.003 converges to
// HEFT-level policies reliably (see EXPERIMENTS.md).
func DefaultConfig() Config {
	return Config{
		Episodes:      8000,
		BatchEpisodes: 8,
		Gamma:         0.99,
		EntropyBeta:   1e-2,
		ValueScale:    0.5,
		LR:            0.003,
		ClipNorm:      5,
		Unroll:        0,
		Seed:          1,
	}
}

// EpisodeStats summarises one training episode. It doubles as the JSONL
// telemetry record (one line per episode), so every field carries a JSON tag.
type EpisodeStats struct {
	Episode  int     `json:"episode"`
	Makespan float64 `json:"makespan"`
	Reward   float64 `json:"reward"`
	Entropy  float64 `json:"entropy"`
	Loss     float64 `json:"loss"`
	// PolicyLoss and ValueLoss are the actor and critic components of Loss
	// (mean per decision).
	PolicyLoss float64 `json:"policy_loss"`
	ValueLoss  float64 `json:"value_loss"`
	// GradNorm is the pre-clip global gradient norm of the update applied at
	// the end of this episode, or 0 when the episode did not close a batch.
	GradNorm float64 `json:"grad_norm"`
}

// History is the training curve.
type History struct {
	Episodes []EpisodeStats
	// BaselineMakespan is the HEFT projection used in the reward.
	BaselineMakespan float64
}

// FinalMeanReward averages the reward over the last k episodes.
func (h History) FinalMeanReward(k int) float64 {
	n := len(h.Episodes)
	if k > n {
		k = n
	}
	if k == 0 {
		return 0
	}
	var s float64
	for _, e := range h.Episodes[n-k:] {
		s += e.Reward
	}
	return s / float64(k)
}

// Trainer trains an agent on a fixed problem distribution (one (kernel, T,
// platform, σ) combination, as in §V-E).
type Trainer struct {
	Agent   *core.Agent
	Problem core.Problem
	Cfg     Config

	// Telemetry, if non-nil, receives one EpisodeStats JSON line per episode.
	// The sink is write-only for the trainer: attaching it never touches the
	// RNG or the gradients, so training results are bit-identical with and
	// without telemetry.
	Telemetry *obs.JSONL

	opt      *nn.Adam
	baseline float64

	// Kept from batch to batch for their memory: what rollouts run in (a
	// policy per rollout worker and W+1 episode logs, each handed to the
	// next episode once its own is accumulated), the update's tape and state
	// stack, and the update's per-episode vectors.
	rollouts rolloutPool
	bind     *nn.Binding
	stack    core.StateBatch
	scratch  struct {
		stepRewards, targets []float64
		picks                []int
		passes               passSplit
		negAdv, negTarget    tensor.Matrix
	}
}

// NewTrainer prepares training of the agent on the problem. A fault spec in
// the config is copied onto the trainer's problem, so rollouts (but not the
// HEFT reward baseline, which stays the fault-free projection) run under
// fault injection. With Arrivals set, the single-DAG HEFT projection is
// skipped (the problem may carry no graph at all) and baselines are computed
// per episode on each episode's own arrival stream.
func NewTrainer(agent *core.Agent, problem core.Problem, cfg Config) *Trainer {
	if cfg.Episodes <= 0 || cfg.BatchEpisodes <= 0 || cfg.RolloutWorkers < 0 {
		panic(fmt.Sprintf("rl: invalid config %+v", cfg))
	}
	if cfg.Faults.Enabled() {
		problem.Faults = cfg.Faults
	}
	// The agent's gradient buffers (nn.Param) are made with the rest of the
	// trainer's memory, before any episode runs.
	agent.Params().ZeroGrad()
	t := &Trainer{
		Agent:   agent,
		Problem: problem,
		Cfg:     cfg,
		opt:     nn.NewAdam(cfg.LR),
		bind:    nn.NewBinding(),
	}
	if cfg.Arrivals == nil {
		t.baseline = problem.HEFTBaseline()
	}
	return t
}

// Run trains for Cfg.Episodes episodes and returns the training history.
// Progress, if non-nil, is called after every episode, once the episode's
// line is written to Telemetry (if set). Both only read the statistics, so
// neither can change training. When Run returns, no rollout of it is running.
func (t *Trainer) Run(progress func(EpisodeStats)) (History, error) {
	hist := History{BaselineMakespan: t.baseline}
	t.Agent.Params().ZeroGrad()
	for start := 0; start < t.Cfg.Episodes; start += t.Cfg.BatchEpisodes {
		n := min(t.Cfg.Episodes-start, t.Cfg.BatchEpisodes)
		// The batch rolls out under the current parameters while its episodes
		// are accumulated in fixed episode order: History does not depend on
		// the worker count.
		t.rollouts.collect(t, start, n)
		err := t.consume(&hist, n, progress)
		t.rollouts.stop()
		if err != nil {
			return hist, err
		}
	}
	return hist, nil
}

// consume accumulates the n episodes of the batch being collected as their
// rollouts finish, releasing each once it is accumulated, applies the update
// after the last, and records each episode's statistics.
func (t *Trainer) consume(hist *History, n int, progress func(EpisodeStats)) error {
	for k := 0; k < n; k++ {
		r := t.rollouts.wait(k)
		if r.err != nil {
			return fmt.Errorf("rl: episode %d: %w", r.ep, r.err)
		}
		st := EpisodeStats{Episode: r.ep, Makespan: r.makespan, Reward: r.reward, Entropy: r.entropy}
		st.Loss, st.PolicyLoss, st.ValueLoss = t.accumulate(r.log, r.log.Steps(), r.reward)
		// Episode k's log may take the next episode now.
		t.rollouts.release(k)
		if k == n-1 {
			st.GradNorm = applyUpdate(t.Agent.Params(), t.opt, t.Cfg.ClipNorm)
		}
		hist.Episodes = append(hist.Episodes, st)
		if t.Telemetry != nil {
			if err := t.Telemetry.Write(st); err != nil {
				return fmt.Errorf("rl: writing telemetry: %w", err)
			}
		}
		if progress != nil {
			progress(st)
		}
	}
	return nil
}

// applyUpdate clips gradients (when enabled), steps the optimiser and zeroes
// the gradients, returning the pre-clip global gradient norm.
func applyUpdate(params *nn.ParamSet, opt *nn.Adam, clipNorm float64) float64 {
	var norm float64
	if clipNorm > 0 {
		norm = params.ClipGradNorm(clipNorm)
	} else {
		norm = params.GradNorm()
	}
	opt.Step(params)
	params.ZeroGrad()
	return norm
}

// accumulate adds one episode's gradients to the agent's parameters: the
// states of steps, the leading decisions recorded in log, go through the
// network in one tape pass (several of about equal height, in decision
// order, past maxPassRows),
// the per-decision losses are built as d-vectors on the same tape, and one
// Backward accumulates straight into the parameters. It returns the mean
// per-decision total, policy and value losses.
func (t *Trainer) accumulate(log *core.EpisodeLog, steps []core.Step, reward float64) (total, policy, value float64) {
	d := len(steps)
	if d == 0 {
		return 0, 0, 0
	}
	sc := &t.scratch
	// Per-step rewards: zero on non-terminal transitions per §III-B.
	stepRewards := resize(&sc.stepRewards, d)
	clear(stepRewards)
	stepRewards[d-1] = reward
	// Targets: discounted returns, optionally bootstrapped from the recorded
	// value n steps ahead.
	targets := resize(&sc.targets, d)
	ret := 0.0
	for i := d - 1; i >= 0; i-- {
		ret = stepRewards[i] + float64(t.Cfg.Gamma*ret)
		targets[i] = ret
		if stepsToEnd := d - 1 - i; t.Cfg.Unroll > 0 && stepsToEnd >= t.Cfg.Unroll {
			boot := steps[i+t.Cfg.Unroll].Value
			targets[i] = math.Pow(t.Cfg.Gamma, float64(t.Cfg.Unroll)) * boot
			for k := 0; k < t.Cfg.Unroll; k++ {
				targets[i] += float64(math.Pow(t.Cfg.Gamma, float64(k)) * stepRewards[i+k])
			}
		}
	}

	// Normalise by episode length so long episodes don't dominate.
	scale := 1.0 / float64(d)
	ps := &sc.passes
	ps.ends = append(ps.ends[:0], 0)
	for i := range steps {
		ps.ends = append(ps.ends, ps.ends[i]+log.Rows(i))
	}
	cuts := ps.split(maxPassRows)
	for p := 1; p < len(cuts); p++ {
		lo, hi := cuts[p-1], cuts[p]
		sb := &t.stack
		sb.Reset()
		for i := lo; i < hi; i++ {
			sb.AppendLogged(log, i)
		}
		k := hi - lo
		picks := resize(&sc.picks, k)
		negAdv, negTarget := column(&sc.negAdv, k), column(&sc.negTarget, k)
		for i, st := range steps[lo:hi] {
			picks[i] = sb.ActionIndex(i, st.Action)
			negAdv.Data[i] = -(targets[lo+i] - st.Value)
			negTarget.Data[i] = -targets[lo+i]
		}

		t.bind.Reset()
		fw := t.Agent.ForwardBatch(t.bind, sb)
		tp := t.bind.Tape
		policyLoss := tp.Mul(tp.GatherRows(fw.LogProbs, picks), tp.Const(negAdv))
		valueErr := tp.Add(fw.Value, tp.Const(negTarget))
		valueLoss := tp.Scale(tp.Square(valueErr), t.Cfg.ValueScale)
		entropy := fw.Entropy()
		loss := tp.Sub(tp.Add(policyLoss, valueLoss), tp.Scale(entropy, t.Cfg.EntropyBeta))
		loss = tp.Scale(loss, scale)
		tp.Backward(tp.SumAll(loss))
		for i := 0; i < k; i++ {
			policy += float64(policyLoss.Value.Data[i] * scale)
			value += float64(valueLoss.Value.Data[i] * scale)
			total += loss.Value.Data[i]
		}
	}
	return total, policy, value
}

// passSplit cuts an episode's decisions into tape passes of about equal
// height, so that the buffers of every pass fall into one size class of the
// tape's free list. Its slices are kept from update to update.
type passSplit struct {
	ends []int // ends[i]: the rows decisions [0, i) stack; the caller's to fill
	high []int
	cuts []int
}

// split returns the cuts 0 = c₀ < c₁ < … < cₚ = d between the passes of the
// d decisions ends describes, pass j taking decisions [cⱼ₋₁, cⱼ). The heights
// of its passes differ by at most the tallest decision's rows, and a pass of
// more than one decision stacks at most maxRows. p is ⌈ends[d] / maxRows⌉
// unless no such passes exist at that count, when it is the least larger
// count that has them (at p = d every decision is a pass of its own). With a
// decision taller than maxRows p may be larger than that least count, never
// smaller. The cuts are valid until the next split.
func (ps *passSplit) split(maxRows int) []int {
	ends := ps.ends
	d, tallest := len(ends)-1, 0
	for i := range d {
		tallest = max(tallest, ends[i+1]-ends[i])
	}
	for p := max(1, (ends[d]+maxRows-1)/maxRows); p < d; p++ {
		if ps.balanced(p, tallest) && ps.fit(maxRows) {
			return ps.cuts
		}
	}
	ps.cuts = ps.cuts[:0]
	for i := 0; i <= d; i++ {
		ps.cuts = append(ps.cuts, i)
	}
	return ps.cuts
}

// balanced sets cuts to p passes whose heights all lie in [U-h, U], h the
// tallest decision's rows, for the least U that has such passes, and reports
// whether it found them. No p passes whose heights differ by at most h have
// a lower tallest pass than U.
func (ps *passSplit) balanced(p, h int) bool {
	// The least U at which passes of at most U rows reach the last decision
	// or passes of at least U-h rows overshoot it; both only become true as
	// U grows, and the tallest pass is at least h and at most share+h.
	share := (ps.ends[len(ps.ends)-1] + p - 1) / p
	lo, hi := max(h, share), share+h
	for lo < hi {
		if U := (lo + hi) / 2; ps.bounds(p, h, U) == tooShort {
			lo = U + 1
		} else {
			hi = U
		}
	}
	if ps.bounds(p, h, lo) != fits {
		return false
	}
	// Read the passes back from the last decision, each cut the latest
	// boundary its pass allows that j-1 passes can end at.
	ends, low, high := ps.ends, ps.cuts, ps.high
	L := max(1, lo-h)
	for j, c := p, len(ends)-1; j > 0; j-- {
		low[j] = c
		k := min(high[j-1], c-1)
		for ends[k] > ends[c]-L {
			k--
		}
		c = k
	}
	return true
}

// The verdicts of bounds.
const (
	tooShort  = iota // passes of at most U rows end short of the last decision
	fits             // p passes of [max(1, U-h), U] rows cut the episode
	overshoot        // passes of at least U-h rows end past the last decision
)

// bounds sets low[j] (in cuts) and high[j] to the first and the last
// boundary at which j passes of heights in [max(1, U-h), U] can end, and
// says whether p of them can end at the last decision. Every boundary
// between low[j] and high[j] can end them too: a decision is at most h rows
// high, so any h rows past a boundary hold another.
func (ps *passSplit) bounds(p, h, U int) int {
	ends := ps.ends
	d, L := len(ends)-1, max(1, U-h)
	low, high := resize(&ps.cuts, p+1), resize(&ps.high, p+1)
	low[0], high[0] = 0, 0
	lo, hi := 0, 0
	for j := 1; j <= p; j++ {
		for lo <= d && ends[lo] < ends[low[j-1]]+L {
			lo++
		}
		if lo > d {
			return overshoot
		}
		for hi < d && ends[hi+1] <= ends[high[j-1]]+U {
			hi++
		}
		low[j], high[j] = lo, hi
	}
	if high[p] < d {
		return tooShort
	}
	return fits
}

// fit reports whether every pass of more than one decision stacks at most
// maxRows.
func (ps *passSplit) fit(maxRows int) bool {
	for j := 1; j < len(ps.cuts); j++ {
		lo, hi := ps.cuts[j-1], ps.cuts[j]
		if hi-lo > 1 && ps.ends[hi]-ps.ends[lo] > maxRows {
			return false
		}
	}
	return true
}

// resize returns *buf at length n, reallocating only when it has to grow;
// contents are unspecified.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// column returns m reshaped to n x 1 over its own buffer; every entry is the
// caller's to write.
func column(m *tensor.Matrix, n int) *tensor.Matrix {
	m.Rows, m.Cols, m.Data = n, 1, resize(&m.Data, n)
	return m
}
