package rl

import (
	"fmt"
	"math"

	"readys/internal/autograd"
	"readys/internal/core"
	"readys/internal/nn"
	"readys/internal/obs"
	"readys/internal/sim"
	"readys/internal/stream"
)

// PPOConfig holds the hyper-parameters of the PPO trainer — the "more recent
// algorithms" extension the paper's future-work section (§VI) points to.
type PPOConfig struct {
	// Iterations is the number of collect-then-optimise cycles.
	Iterations int
	// EpisodesPerIter is the number of rollout episodes per cycle.
	EpisodesPerIter int
	// Epochs is the number of optimisation passes over each batch.
	Epochs int
	// ClipEps is the PPO surrogate clipping radius (0.2 by convention).
	ClipEps float64

	Gamma       float64
	EntropyBeta float64
	ValueScale  float64
	LR          float64
	ClipNorm    float64
	// Seed drives episode randomness; each rollout episode uses its own
	// stream derived from (Seed, episodeIndex).
	Seed int64
	// RolloutWorkers is the number of concurrent rollouts per iteration
	// (0 selects GOMAXPROCS). The History is bit-identical at any worker
	// count, mirroring the A2C contract (see Config.RolloutWorkers).
	RolloutWorkers int
	// Faults, when enabled, trains under per-episode fault injection,
	// mirroring the A2C contract (see Config.Faults).
	Faults sim.FaultSpec
	// Arrivals, when non-nil, trains on streaming job arrivals, mirroring the
	// A2C contract (see Config.Arrivals).
	Arrivals *stream.PoissonProcess
}

// DefaultPPOConfig returns conventional PPO constants matched to the A2C
// defaults of this repository.
func DefaultPPOConfig() PPOConfig {
	return PPOConfig{
		Iterations:      100,
		EpisodesPerIter: 8,
		Epochs:          3,
		ClipEps:         0.2,
		Gamma:           0.99,
		EntropyBeta:     1e-2,
		ValueScale:      0.5,
		LR:              0.003,
		ClipNorm:        5,
		Seed:            1,
	}
}

// ppoSample is one stored decision of a rollout batch: decision index of the
// episode recorded in log.
type ppoSample struct {
	log       *core.EpisodeLog
	index     int
	action    int
	oldLogP   float64
	target    float64 // discounted terminal return
	advantage float64 // target − V_old(state)
}

// PPOTrainer trains an agent with clipped-surrogate PPO on a fixed problem.
type PPOTrainer struct {
	Agent   *core.Agent
	Problem core.Problem
	Cfg     PPOConfig

	// Telemetry, if non-nil, receives one EpisodeStats JSON line per rollout
	// episode (emitted after the iteration's optimisation passes, so the
	// loss fields are populated). Attaching it never alters training.
	Telemetry *obs.JSONL

	opt      *nn.Adam
	baseline float64

	// Kept from iteration to iteration for their memory: what rollouts run
	// in, the batch's samples and statistics, and the tape and width-1 stack
	// a sample is evaluated on.
	rollouts rolloutPool
	batch    []ppoSample
	pending  []EpisodeStats
	bind     *nn.Binding
	stack    core.StateBatch
}

// NewPPOTrainer prepares PPO training of the agent on the problem.
func NewPPOTrainer(agent *core.Agent, problem core.Problem, cfg PPOConfig) *PPOTrainer {
	if cfg.Iterations <= 0 || cfg.EpisodesPerIter <= 0 || cfg.Epochs <= 0 {
		panic(fmt.Sprintf("rl: invalid PPO config %+v", cfg))
	}
	if cfg.Faults.Enabled() {
		problem.Faults = cfg.Faults
	}
	t := &PPOTrainer{
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

// Run executes the PPO loop and returns a training history with one entry
// per rollout episode. Episode statistics are appended and emitted after the
// iteration's optimisation passes, so the loss fields carry the batch-mean
// losses of the final epoch. A nil progress callback and a nil Telemetry
// sink are both fine (see emitEpisode).
func (t *PPOTrainer) Run(progress func(EpisodeStats)) (History, error) {
	hist := History{BaselineMakespan: t.baseline}
	params := t.Agent.Params()
	params.ZeroGrad()
	workers := resolveWorkers(t.Cfg.RolloutWorkers)
	for it := 0; it < t.Cfg.Iterations; it++ {
		// Collect a batch of rollouts under the current ("old") policy,
		// concurrently across the worker pool; samples are extracted in fixed
		// episode order, so the batch layout is worker-count independent.
		batch, pending := t.batch[:0], t.pending[:0]
		results := t.rollouts.collect(t.Agent, t.Problem, t.Cfg.Arrivals, t.baseline, t.Cfg.Seed, it*t.Cfg.EpisodesPerIter, t.Cfg.EpisodesPerIter, workers)
		for k := range results {
			r := &results[k]
			if r.err != nil {
				return hist, fmt.Errorf("rl: ppo rollout: %w", r.err)
			}
			steps := r.log.Steps()
			d := len(steps)
			for i, st := range steps {
				target := float64(math.Pow(t.Cfg.Gamma, float64(d-1-i)) * r.reward)
				batch = append(batch, ppoSample{
					log:       r.log,
					index:     i,
					action:    st.Action,
					oldLogP:   st.LogProb,
					target:    target,
					advantage: target - st.Value,
				})
			}
			pending = append(pending, EpisodeStats{Episode: r.ep, Makespan: r.makespan, Reward: r.reward, Entropy: r.entropy})
		}
		t.batch, t.pending = batch, pending
		// Optimise the clipped surrogate for several epochs.
		var epochTotal, epochPolicy, epochValue, gradNorm float64
		for ep := 0; ep < t.Cfg.Epochs; ep++ {
			epochTotal, epochPolicy, epochValue = 0, 0, 0
			scale := 1.0 / float64(len(batch))
			for _, s := range batch {
				t.stack.Reset()
				t.stack.AppendLogged(s.log, s.index)
				t.bind.Reset()
				fw := t.Agent.ForwardBatch(t.bind, &t.stack)
				tp := t.bind.Tape

				logp := tp.Pick(fw.LogProbs, s.action, 0)
				ratio := tp.Exp(tp.AddConst(logp, -s.oldLogP))
				// Clipped surrogate: the unclipped branch only contributes
				// gradient when it is the active minimum.
				rv := autograd.Scalar(ratio)
				clipped := math.Min(math.Max(rv, 1-t.Cfg.ClipEps), 1+t.Cfg.ClipEps)
				var surrogate *autograd.Node
				if rv*s.advantage <= clipped*s.advantage {
					surrogate = tp.Scale(ratio, s.advantage)
				} else {
					// Constant branch: no policy gradient flows.
					surrogate = tp.Scale(tp.AddConst(tp.Scale(ratio, 0), clipped), s.advantage)
				}
				policyLoss := tp.Neg(surrogate)
				valueErr := tp.AddConst(fw.Value, -s.target)
				valueLoss := tp.Scale(tp.Square(valueErr), t.Cfg.ValueScale)
				entropy := fw.Entropy()
				loss := tp.Sub(tp.Add(policyLoss, valueLoss), tp.Scale(entropy, t.Cfg.EntropyBeta))
				loss = tp.Scale(loss, scale)
				tp.Backward(loss)
				epochTotal += autograd.Scalar(loss)
				epochPolicy += float64(autograd.Scalar(policyLoss) * scale)
				epochValue += float64(autograd.Scalar(valueLoss) * scale)
			}
			gradNorm = applyUpdate(params, t.opt, t.Cfg.ClipNorm)
		}
		for i, st := range pending {
			st.Loss = epochTotal
			st.PolicyLoss = epochPolicy
			st.ValueLoss = epochValue
			if i == len(pending)-1 {
				st.GradNorm = gradNorm
			}
			hist.Episodes = append(hist.Episodes, st)
			if err := emitEpisode(t.Telemetry, progress, st); err != nil {
				return hist, err
			}
		}
	}
	return hist, nil
}
