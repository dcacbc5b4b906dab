package rl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
// several passes, and under bootstrapped targets.
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
		{name: "unroll", T: 4, passes: 1, tweak: func(c *Config) { c.Unroll = 5 }},
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
			if g := batched.Params().All()[0].Grad; tensor.Dot(g, g) == 0 {
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
// copied; it read 12 112 B, and 10 385 B until a backward step became a record
// on the tape instead of a closure and the row-parallel products stopped
// making goroutines; it reads 7 777 B. The bound is about 1.25 × that.
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
	if perEpisode > 9750 {
		t.Fatalf("%d B allocated per episode, contract is 9 750: a rollout is building its policy, log or simulator state again, or the update its tape nodes or backward steps", perEpisode)
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

// convergedEpisode records one episode of the committed Cholesky T=6
// checkpoint — the converged policy train_a2c_t6 continues training — on its
// training problem, and returns a trainer over that agent, the rollout policy
// holding the episode, and the episode's reward.
func convergedEpisode(tb testing.TB) (*Trainer, *core.Policy, float64) {
	tb.Helper()
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	if _, err := agent.LoadCheckpoint("../../models/readys_cholesky_T6_2c2g_w2_l2_h32.json"); err != nil {
		tb.Fatal(err)
	}
	prob := core.NewProblem(taskgraph.Cholesky, 6, 2, 2, 0.1)
	pol := core.NewTrainingPolicy(agent, rand.New(rand.NewSource(1)))
	res, err := prob.Simulate(pol, pol.Rng)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Episodes = 1
	return NewTrainer(agent, prob, cfg), pol, core.Reward(prob.HEFTBaseline(), res.Makespan)
}

// TestUpdateAllocFree: once warm, the update of a recorded episode — the
// batched forward, the loss, Backward into the parameters — allocates
// nothing, on one CPU and with a helper taking blocks of the row-parallel
// products. Each backward step used to be a heap closure, and each large
// product made a closure, a WaitGroup and a goroutine per block: 216
// allocations an update of this episode. The runtime itself allocates now and
// then — a collection finishing, the record of a goroutine parked on a
// channel when its P's cache has run dry — so the least of three windows of
// five updates must read 0; an allocation in the update shows in every one.
func TestUpdateAllocFree(t *testing.T) {
	if raceDetector {
		t.Skip("the race runtime allocates beside the program when goroutines hand off over channels")
	}
	tr, pol, reward := convergedEpisode(t)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		// Warm: the tape's free list, arena, steps and tables, and the
		// helpers, grow to what this episode needs.
		tr.accumulate(pol.Log, pol.Steps, reward)
		tr.accumulate(pol.Log, pol.Steps, reward)
		var windows []uint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 5 {
				tr.accumulate(pol.Log, pol.Steps, reward)
			}
			runtime.ReadMemStats(&after)
			if windows = append(windows, after.Mallocs-before.Mallocs); after.Mallocs == before.Mallocs {
				break
			}
		}
		runtime.GOMAXPROCS(prev)
		if least := slices.Min(windows); least != 0 {
			t.Fatalf("GOMAXPROCS %d: %v allocations in windows of 5 warm updates of %d decisions, want 0 in one", procs, windows, len(pol.Steps))
		}
	}
}

// raceDetector is set under -race (race_test.go).
var raceDetector bool

// BenchmarkA2CUpdate times the update of one recorded Cholesky T=6 episode
// (163 decisions) of the committed converged
// checkpoint, the agent train_a2c_t6 trains: the batched tape pass against
// the per-decision oracle it replaced.
func BenchmarkA2CUpdate(b *testing.B) {
	tr, pol, reward := convergedEpisode(b)
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.accumulate(pol.Log, pol.Steps, reward)
		}
	})
	b.Run("per-decision", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			accumulatePerDecision(tr.Agent, tr.Cfg, pol.Log, pol.Steps, reward)
		}
	})
}
