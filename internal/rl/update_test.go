package rl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"readys/internal/autograd"
	"readys/internal/core"
	"readys/internal/sim"
	"readys/internal/taskgraph"
	"readys/internal/tensor"
)

// accumulatePerDecision is the update as it was before the batched pass, kept
// as the oracle: one width-1 tape per decision, the scalar A2C loss built on
// it, one Backward each, in decision order. Values for advantages and
// bootstraps come from its own forwards, not from what the rollout recorded;
// each state is read back from the episode's log.
func accumulatePerDecision(agent *core.Agent, cfg Config, log *core.EpisodeLog, steps []core.Step, reward float64) (total, policy, value float64) {
	d := len(steps)
	values := make([]float64, d)
	var state core.EncodedState
	for i := range steps {
		fw := agent.Forward(log.State(i, &state))
		values[i] = autograd.Scalar(fw.Value)
		fw.Binding.Release()
	}
	stepRewards := make([]float64, d)
	stepRewards[d-1] = reward
	if cfg.IdlePenalty > 0 {
		for i, st := range steps {
			if st.Idle() {
				stepRewards[i] -= cfg.IdlePenalty
			}
		}
	}
	targets := make([]float64, d)
	ret := 0.0
	for i := d - 1; i >= 0; i-- {
		ret = stepRewards[i] + cfg.Gamma*ret
		targets[i] = ret
		if stepsToEnd := d - 1 - i; cfg.Unroll > 0 && stepsToEnd >= cfg.Unroll {
			targets[i] = math.Pow(cfg.Gamma, float64(cfg.Unroll)) * values[i+cfg.Unroll]
			for k := 0; k < cfg.Unroll; k++ {
				targets[i] += math.Pow(cfg.Gamma, float64(k)) * stepRewards[i+k]
			}
		}
	}
	scale := 1.0 / float64(d)
	for i, st := range steps {
		fw := agent.Forward(log.State(i, &state))
		tp := fw.Binding.Tape
		adv := targets[i] - values[i]
		logp := tp.Pick(fw.LogProbs, st.Action, 0)
		policyLoss := tp.Scale(logp, -adv)
		valueErr := tp.AddConst(fw.Value, -targets[i])
		valueLoss := tp.Scale(tp.Square(valueErr), cfg.ValueScale)
		entropy := fw.Entropy()
		loss := tp.Sub(tp.Add(policyLoss, valueLoss), tp.Scale(entropy, cfg.EntropyBeta))
		loss = tp.Scale(loss, scale)
		tp.Backward(loss)
		policy += autograd.Scalar(policyLoss) * scale
		value += autograd.Scalar(valueLoss) * scale
		total += autograd.Scalar(loss)
		fw.Binding.Release()
	}
	return total, policy, value
}

// maskEveryThird forbids ∅ at every third decision of the training policy it
// wraps: the simulator masks ∅ only in a forced round, which a short episode
// may never reach.
type maskEveryThird struct {
	*core.Policy
	n int
}

func (m *maskEveryThird) Decide(s *sim.State, r int) int {
	m.DisableIdle = m.n%3 == 0
	m.n++
	return m.Policy.Decide(s, r)
}

// TestBatchedUpdateBitIdentical: the gradients one episode leaves in the
// parameters, and the three losses it reports, are == on every element to
// what the per-decision update leaves — for an episode of one pass, one with
// ∅-masked decisions, one of a single decision, one long enough to take
// several passes, and under bootstrapped and shaped targets.
func TestBatchedUpdateBitIdentical(t *testing.T) {
	type episode struct {
		name   string
		T      int
		mask   bool
		first  int // keep only this many decisions (0: all)
		passes int // least number of tape passes the episode must take
		tweak  func(*Config)
	}
	agentCfg := core.Config{Window: 2, Layers: 2, Hidden: 16, Seed: 3}
	for _, ep := range []episode{
		{name: "one pass", T: 4, passes: 1},
		{name: "∅-masked decisions", T: 4, mask: true, passes: 1},
		{name: "single decision", T: 4, first: 1, passes: 1},
		{name: "several passes", T: 8, mask: true, passes: 3},
		{name: "unroll + idle penalty", T: 4, passes: 1, tweak: func(c *Config) { c.Unroll, c.IdlePenalty = 5, 0.05 }},
	} {
		t.Run(ep.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Episodes = 1
			if ep.tweak != nil {
				ep.tweak(&cfg)
			}
			prob := core.NewProblem(taskgraph.Cholesky, ep.T, 2, 2, 0.1)
			batched, oracle := core.NewAgent(agentCfg), core.NewAgent(agentCfg)

			rng := rand.New(rand.NewSource(7))
			pol := core.NewTrainingPolicy(batched, rng)
			var runner sim.Policy = pol
			if ep.mask {
				runner = &maskEveryThird{Policy: pol}
			}
			res, err := prob.Simulate(runner, rng)
			if err != nil {
				t.Fatal(err)
			}
			steps := pol.Steps
			if ep.first > 0 {
				steps = steps[:ep.first]
			}
			var rows, masked int
			var state core.EncodedState
			for i := range steps {
				rows += pol.Log.Rows(i)
				if !pol.Log.State(i, &state).AllowIdle {
					masked++
				}
			}
			if ep.mask && (masked == 0 || masked == len(steps)) {
				t.Fatalf("%d of %d decisions mask ∅: both kinds must occur", masked, len(steps))
			}
			if passes := (rows + maxPassRows - 1) / maxPassRows; passes < ep.passes {
				t.Fatalf("%d stacked rows make %d passes, the case wants at least %d", rows, passes, ep.passes)
			}
			reward := core.Reward(prob.HEFTBaseline(), res.Makespan)

			tr := NewTrainer(batched, prob, cfg)
			batched.Params().ZeroGrad()
			oracle.Params().ZeroGrad()
			// Two episodes' worth: the second accumulates onto the first, on a
			// tape that has been Reset in between.
			for round := 0; round < 2; round++ {
				gt, gp, gv := tr.accumulate(pol.Log, steps, reward)
				wt, wp, wv := accumulatePerDecision(oracle, cfg, pol.Log, steps, reward)
				if gt != wt || gp != wp || gv != wv {
					t.Fatalf("round %d: losses (%v, %v, %v), per-decision update (%v, %v, %v)", round, gt, gp, gv, wt, wp, wv)
				}
				for i, p := range batched.Params().All() {
					want := oracle.Params().All()[i].Grad
					for j, g := range p.Grad.Data {
						if math.Float64bits(g) != math.Float64bits(want.Data[j]) {
							t.Fatalf("round %d: ∂%s[%d] = %v, per-decision update %v", round, p.Name, j, g, want.Data[j])
						}
					}
				}
			}
			if tensor.Norm(batched.Params().All()[0].Grad) == 0 {
				t.Fatal("the update left a zero input-layer gradient: nothing was compared")
			}
		})
	}
}

// TestTrainCostBounded makes the cost of the training path a contract. Sizes
// are the golden problem's (Cholesky T=4, 2c2g, w2 l2 h16), 4 updates of 8
// episodes, one rollout worker, on a trainer that has run four updates already
// (so its tape, episode logs and rollout policy own their memory, sized for
// the longest episode they have seen, and count as heap before the run; after
// a single update the tape's free list is still gaining a size class).
//
// Bytes: the per-decision-tape trainer allocated 1 228 850 B per episode here
// (20 282 mallocs), the trainer that copied every decision's state about
// 160 kB, and the one that built a simulator state per episode 22 672 B; this
// one records into logs it keeps and rolls out on a policy and in simulator
// memory it keeps, and read 19 868 B — the update's tape nodes — until each
// dense layer became one node and a first gradient was moved instead of
// copied; it reads 12 112 B. The bound is about 1.25 × that.
//
// Live heap: an episode is recorded in memory the trainer already holds, so
// nothing new should be live while a batch is being consumed. Sampled after
// the first episode of each batch, after a forced collection, the heap may
// reach 1.1 × the heap before Run. The per-decision-tape trainer held every
// decision's tape across the barrier and sat 8.7 MB above its start here.
func TestTrainCostBounded(t *testing.T) {
	const parentBytesPerEpisode = 1228850
	agent := goldenAgent(core.Config{})
	cfg := DefaultConfig()
	cfg.Episodes = 4 * cfg.BatchEpisodes
	cfg.Seed = 5
	cfg.RolloutWorkers = 1
	prob := goldenProblem()

	tr := NewTrainer(agent, prob, cfg)
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
	var before, after, m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var peak uint64
	_, err := tr.Run(func(st EpisodeStats) {
		if st.Episode%cfg.BatchEpisodes == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m)
			peak = max(peak, m.HeapAlloc)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEpisode := (after.TotalAlloc - before.TotalAlloc) / uint64(tr.Cfg.Episodes)
	t.Logf("%d B allocated per episode (per-decision-tape trainer %d), live heap %d B before, %d B at its highest",
		perEpisode, parentBytesPerEpisode, before.HeapAlloc, peak)
	if perEpisode > 15000 {
		t.Fatalf("%d B allocated per episode, contract is 15 000: a rollout is building its policy, log or simulator state again, or the update its tape nodes", perEpisode)
	}
	if bound := before.HeapAlloc + before.HeapAlloc/10; peak > bound {
		t.Fatalf("live heap reached %d B while a batch was consumed, bound %d: an episode is being recorded in memory the trainer does not keep", peak, bound)
	}
}

func ExampleStep() {
	// The three numbers a rollout records per decision, off the tape.
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 1})
	pol := core.NewTrainingPolicy(agent, rand.New(rand.NewSource(1)))
	if _, err := tinyProblem().Simulate(pol, pol.Rng); err != nil {
		panic(err)
	}
	st := pol.Steps[0]
	fmt.Println(st.LogProb < 0, st.Entropy > 0, st.Forward.Binding == nil)
	// Output: true true true
}

// BenchmarkA2CUpdate times the update of one recorded Cholesky T=6 episode
// (≈ 147 decisions, ≈ 4 000 stacked rows) on the benchmark's agent size: the
// batched tape pass against the per-decision oracle it replaced.
func BenchmarkA2CUpdate(b *testing.B) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	prob := core.NewProblem(taskgraph.Cholesky, 6, 2, 2, 0.1)
	pol := core.NewTrainingPolicy(agent, rand.New(rand.NewSource(1)))
	res, err := prob.Simulate(pol, pol.Rng)
	if err != nil {
		b.Fatal(err)
	}
	reward := core.Reward(prob.HEFTBaseline(), res.Makespan)
	cfg := DefaultConfig()
	cfg.Episodes = 1
	tr := NewTrainer(agent, prob, cfg)
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.accumulate(pol.Log, pol.Steps, reward)
		}
	})
	b.Run("per-decision", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			accumulatePerDecision(agent, cfg, pol.Log, pol.Steps, reward)
		}
	})
}
