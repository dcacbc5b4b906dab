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
	"math/rand"

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
// episode beyond it takes several passes over consecutive decisions, whose
// gradients add up in the same order. See EXPERIMENTS.md for the measurement
// behind the value.
const maxPassRows = 2048

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
	// IdlePenalty, when positive, adds an immediate reward of −IdlePenalty
	// to every ∅ decision — a reward-shaping ablation of the paper's
	// terminal-only design (§III-B sets rₜ=0 on non-terminal transitions).
	IdlePenalty float64
	// Seed drives episode randomness (noise, sampling). Each episode uses
	// its own stream derived from (Seed, episodeIndex), so results do not
	// depend on rollout scheduling.
	Seed int64
	// RolloutWorkers is the number of episodes of each batch rolled out
	// concurrently (0 selects GOMAXPROCS). The training History is
	// bit-identical at any worker count: per-episode RNG streams plus
	// fixed-order gradient accumulation after the batch barrier.
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
	// (mean per decision for A2C; batch mean of the final PPO epoch).
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

	// Kept from batch to batch for their memory: what rollouts run in, the
	// update's tape and state stack, and the update's per-episode vectors.
	rollouts rolloutPool
	bind     *nn.Binding
	stack    core.StateBatch
	scratch  struct {
		stepRewards, targets []float64
		picks                []int
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
	if cfg.Episodes <= 0 || cfg.BatchEpisodes <= 0 {
		panic(fmt.Sprintf("rl: invalid config %+v", cfg))
	}
	if cfg.Faults.Enabled() {
		problem.Faults = cfg.Faults
	}
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

// Baseline returns the HEFT projected makespan used in the reward.
func (t *Trainer) Baseline() float64 { return t.baseline }

// Run trains for Cfg.Episodes episodes and returns the training history.
// Progress, if non-nil, is called after every episode; both a nil progress
// callback and a nil Telemetry sink are fine — emission is routed through one
// sink (emitEpisode), so the loop never branches on them.
func (t *Trainer) Run(progress func(EpisodeStats)) (History, error) {
	hist := History{BaselineMakespan: t.baseline}
	params := t.Agent.Params()
	params.ZeroGrad()
	workers := resolveWorkers(t.Cfg.RolloutWorkers)
	for start := 0; start < t.Cfg.Episodes; start += t.Cfg.BatchEpisodes {
		n := t.Cfg.Episodes - start
		if n > t.Cfg.BatchEpisodes {
			n = t.Cfg.BatchEpisodes
		}
		// Roll out the whole batch under the current parameters, then
		// accumulate gradients in fixed episode order: History does not
		// depend on the worker count.
		results := t.rollouts.collect(t.Agent, t.Problem, t.Cfg.Arrivals, t.baseline, t.Cfg.Seed, start, n, workers)
		for k := range results {
			r := &results[k]
			if r.err != nil {
				return hist, fmt.Errorf("rl: episode %d: %w", r.ep, r.err)
			}
			loss, policyLoss, valueLoss := t.accumulate(r.log, r.log.Steps(), r.reward)
			var gradNorm float64
			if k == n-1 {
				gradNorm = applyUpdate(params, t.opt, t.Cfg.ClipNorm)
			}
			st := EpisodeStats{
				Episode:    r.ep,
				Makespan:   r.makespan,
				Reward:     r.reward,
				Entropy:    r.entropy,
				Loss:       loss,
				PolicyLoss: policyLoss,
				ValueLoss:  valueLoss,
				GradNorm:   gradNorm,
			}
			hist.Episodes = append(hist.Episodes, st)
			if err := emitEpisode(t.Telemetry, progress, st); err != nil {
				return hist, err
			}
		}
	}
	return hist, nil
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

// emitEpisode delivers one episode's statistics to the telemetry sink and the
// optional progress callback. Both trainers route every emission through
// here, so call sites stay free of nil checks and the sink can never mutate
// training state.
func emitEpisode(sink *obs.JSONL, progress func(EpisodeStats), st EpisodeStats) error {
	if sink != nil {
		if err := sink.Write(st); err != nil {
			return fmt.Errorf("rl: writing telemetry: %w", err)
		}
	}
	if progress != nil {
		progress(st)
	}
	return nil
}

// accumulate adds one episode's gradients to the agent's parameters: the
// states of steps, the leading decisions recorded in log, go through the
// network in one tape pass (several, in decision order, past maxPassRows),
// the per-decision losses are built as d-vectors on the same tape, and one
// Backward accumulates straight into the parameters. It returns the mean
// per-decision total, policy and value losses.
func (t *Trainer) accumulate(log *core.EpisodeLog, steps []core.Step, reward float64) (total, policy, value float64) {
	d := len(steps)
	if d == 0 {
		return 0, 0, 0
	}
	sc := &t.scratch
	// Per-step rewards: zero on non-terminal transitions per §III-B, except
	// under the idle-penalty shaping ablation.
	stepRewards := resize(&sc.stepRewards, d)
	clear(stepRewards)
	stepRewards[d-1] = reward
	if t.Cfg.IdlePenalty > 0 {
		for i, st := range steps {
			if st.Idle() {
				stepRewards[i] -= t.Cfg.IdlePenalty
			}
		}
	}
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
	// An episode past the row cap is cut into passes of about equal height,
	// so that their buffers fall into one size class of the tape's free list.
	passRows := 0
	for i := range steps {
		passRows += log.Rows(i)
	}
	passes := (passRows + maxPassRows - 1) / maxPassRows
	passRows = (passRows + passes - 1) / passes
	for lo := 0; lo < d; {
		sb := &t.stack
		sb.Reset()
		hi := lo
		for hi < d && (hi == lo || sb.Rows()+log.Rows(hi) <= passRows) {
			sb.AppendLogged(log, hi)
			hi++
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
		lo = hi
	}
	return total, policy, value
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

// Evaluate runs the agent greedily on the problem for the given number of
// runs/seeds and returns the makespans. One policy, one simulator and one
// generator serve every run: the simulator resets policy and state at the
// start of each, and Seed leaves the generator where rand.NewSource starts.
func Evaluate(agent *core.Agent, problem core.Problem, runs int, seed int64) ([]float64, error) {
	out := make([]float64, 0, runs)
	pol := core.NewPolicy(agent)
	var runner sim.Runner
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < runs; i++ {
		rng.Seed(seed + int64(i))
		res, err := problem.SimulateOn(&runner, pol, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Makespan)
	}
	return out, nil
}
