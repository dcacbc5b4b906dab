package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"readys/internal/autograd"
	"readys/internal/nn"
	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

// tapePolicy is the training rollout as it was before rollouts left the tape,
// kept as the oracle: a full EncodeFault rebuild and an autograd forward per
// decision, one rng draw to sample, everything read off the tape's nodes.
type tapePolicy struct {
	agent       *Agent
	rng         *rand.Rand
	disableIdle bool
	feats       [][taskgraph.NumKernels]float64
	states      []*EncodedState
	steps       []Step
}

func (p *tapePolicy) Reset(*sim.State) { p.feats, p.states, p.steps = nil, nil, nil }

func (p *tapePolicy) Decide(s *sim.State, r int) int {
	if len(p.feats) != s.Graph.NumTasks() {
		p.feats = taskgraph.DescendantFeatures(s.Graph)
	}
	cfg := p.agent.Cfg
	es := EncodeFault(s, r, p.feats, cfg.Window, cfg.Directed, cfg.FaultFeatures)
	if p.disableIdle {
		es.AllowIdle = false
	}
	fw := p.agent.Forward(es)
	action := sampleLogProbs(p.rng, fw.LogProbs.Value.Data)
	p.states = append(p.states, es)
	p.steps = append(p.steps, Step{
		Action:  action,
		LogProb: fw.LogProbs.Value.Data[action],
		Entropy: autograd.Scalar(fw.Entropy()),
		Value:   autograd.Scalar(fw.Value),
	})
	fw.Binding.Release()
	if action == fw.IdleIndex {
		return sim.NoTask
	}
	return es.ReadyTasks[action]
}

// maskEveryThird forbids ∅ at every third decision of the policy it wraps. The
// simulator itself masks ∅ only in a forced round, which a short episode may
// never reach; the proofs below need both kinds of decision side by side.
type maskEveryThird struct {
	sim.Policy
	disableIdle *bool
	n           int
}

func (m *maskEveryThird) Decide(s *sim.State, r int) int {
	*m.disableIdle = m.n%3 == 0
	m.n++
	return m.Policy.Decide(s, r)
}

// trainingEpisodes are the rollouts the training-path proofs sweep: a faulted
// single-DAG episode and a faulted stream, each with a plain and a
// directed + fault-features agent. run rolls one out under pol, drawing every
// random number from seed.
func trainingEpisodes() []struct {
	name  string
	agent *Agent
	run   func(pol sim.Policy, rng *rand.Rand) (makespan float64, err error)
} {
	type episode = struct {
		name  string
		agent *Agent
		run   func(pol sim.Policy, rng *rand.Rand) (float64, error)
	}
	var out []episode
	for _, variant := range []Config{{}, {Directed: true, FaultFeatures: true}} {
		variant.Window, variant.Layers, variant.Hidden, variant.Seed = 2, 2, 16, 3
		agent := NewAgent(variant)
		tag := fmt.Sprintf("directed=%v ff=%v", variant.Directed, variant.FaultFeatures)

		prob := NewProblem(taskgraph.Cholesky, 5, 2, 2, 0.1)
		prob.Faults = sim.SpecForRate(1.5, 0)
		out = append(out, episode{"faulted dag " + tag, agent, func(pol sim.Policy, rng *rand.Rand) (float64, error) {
			res, err := prob.Simulate(pol, rng)
			return res.Makespan, err
		}})

		out = append(out, episode{"faulted stream " + tag, agent, func(pol sim.Policy, rng *rand.Rand) (float64, error) {
			arr, err := stream.PoissonProcess{
				Rate: 6, Jobs: 6, Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU}, Sizes: []int{2, 3},
			}.Generate(rng)
			if err != nil {
				return 0, err
			}
			plat := platform.New(2, 2)
			res, err := stream.Run(pol, stream.Config{
				Platform: plat, Arrivals: arr, Sigma: 0.1, Rng: rng,
				Faults: sim.GeneratePlan(rng.Int63(), plat.Size(), sim.SpecForRate(1.0, arr[len(arr)-1].At+2000)),
			})
			return res.Makespan, err
		}})
	}
	return out
}

// TestTrainingRolloutMatchesTape: the recording policy — incremental encoder,
// forwards with the critic head on its inference tape — takes the decisions
// of the per-decision-tape rollout it replaced, from the same seed, and
// records the same states (read back through the log's materialiser) and the
// same log-probability, entropy and value bits.
func TestTrainingRolloutMatchesTape(t *testing.T) {
	for _, ep := range trainingEpisodes() {
		oracle := &tapePolicy{agent: ep.agent, rng: rand.New(rand.NewSource(41))}
		wantMakespan, err := ep.run(&maskEveryThird{Policy: oracle, disableIdle: &oracle.disableIdle}, oracle.rng)
		if err != nil {
			t.Fatalf("%s: oracle: %v", ep.name, err)
		}
		pol := NewTrainingPolicy(ep.agent, rand.New(rand.NewSource(41)))
		makespan, err := ep.run(&maskEveryThird{Policy: pol, disableIdle: &pol.DisableIdle}, pol.Rng)
		if err != nil {
			t.Fatalf("%s: %v", ep.name, err)
		}
		if makespan != wantMakespan || len(pol.Steps) != len(oracle.steps) {
			t.Fatalf("%s: makespan %v over %d decisions, tape rollout %v over %d",
				ep.name, makespan, len(pol.Steps), wantMakespan, len(oracle.steps))
		}
		var masked int
		var state EncodedState
		for i, got := range pol.Steps {
			want := oracle.steps[i]
			ctx := fmt.Sprintf("%s decision %d", ep.name, i)
			assertStatesEqual(t, oracle.states[i], pol.Log.State(i, &state), ctx)
			if got.Action != want.Action || got.LogProb != want.LogProb || got.Entropy != want.Entropy || got.Value != want.Value {
				t.Fatalf("%s: recorded action %d logp %v entropy %v value %v, tape rollout %d %v %v %v", ctx,
					got.Action, got.LogProb, got.Entropy, got.Value, want.Action, want.LogProb, want.Entropy, want.Value)
			}
			if got.Forward == nil || got.Forward.Binding != nil {
				t.Fatalf("%s: Step.Forward must be the empty vestige", ctx)
			}
			got.Forward.Binding.Release() // what benchmark/train.go does; must be a no-op
			if !state.AllowIdle {
				masked++
			}
		}
		if masked == 0 || masked == len(pol.Steps) {
			t.Fatalf("%s: %d of %d decisions mask ∅: both kinds must occur", ep.name, masked, len(pol.Steps))
		}
	}
}

// TestBatchedForwardBitIdentical: one tape pass over a whole episode's
// stacked states gives every decision the log-probabilities, value and
// entropy of its own width-1 tape pass, which are the bits the rollout
// recorded.
func TestBatchedForwardBitIdentical(t *testing.T) {
	for _, ep := range trainingEpisodes() {
		pol := NewTrainingPolicy(ep.agent, rand.New(rand.NewSource(43)))
		if _, err := ep.run(&maskEveryThird{Policy: pol, disableIdle: &pol.DisableIdle}, pol.Rng); err != nil {
			t.Fatalf("%s: %v", ep.name, err)
		}
		var sb StateBatch
		for i := range pol.Steps {
			sb.AppendLogged(pol.Log, i)
		}
		bind := nn.NewBinding()
		batched := ep.agent.ForwardBatch(bind, &sb)
		entropy := batched.Entropy()
		if batched.Value.Value.Rows != len(pol.Steps) || entropy.Value.Rows != len(pol.Steps) {
			t.Fatalf("%s: %d values and %d entropies for %d states", ep.name, batched.Value.Value.Rows, entropy.Value.Rows, len(pol.Steps))
		}
		var state EncodedState
		for i, st := range pol.Steps {
			ctx := fmt.Sprintf("%s decision %d", ep.name, i)
			one := ep.agent.Forward(pol.Log.State(i, &state))
			for a := 0; a < one.NumActions; a++ {
				got, want := batched.LogProbs.Value.Data[sb.ActionIndex(i, a)], one.LogProbs.Value.Data[a]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: log-prob of action %d is %v at width d, %v at width 1", ctx, a, got, want)
				}
			}
			if next := sb.ActionIndex(i, one.NumActions); i+1 < len(pol.Steps) && next != sb.ActionIndex(i+1, 0) {
				t.Fatalf("%s: %d actions at width 1, but the stacked range ends elsewhere", ctx, one.NumActions)
			}
			value, ent := batched.Value.Value.Data[i], entropy.Value.Data[i]
			if value != autograd.Scalar(one.Value) || ent != autograd.Scalar(one.Entropy()) {
				t.Fatalf("%s: value %v entropy %v at width d, %v %v at width 1", ctx, value, ent, autograd.Scalar(one.Value), autograd.Scalar(one.Entropy()))
			}
			if value != st.Value || ent != st.Entropy || batched.LogProbs.Value.Data[sb.ActionIndex(i, st.Action)] != st.LogProb {
				t.Fatalf("%s: the tape disagrees with what the rollout recorded", ctx)
			}
			one.Binding.Release()
		}
		bind.Release()
	}
}
