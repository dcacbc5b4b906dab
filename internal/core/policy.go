package core

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"readys/internal/autograd"
	"readys/internal/nn"
	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// Step records one decision of a training episode: the encoded state, the
// forward pass (whose tape the loss will be built on) and the chosen action.
// A2C builds its loss directly on Forward's tape; PPO re-evaluates State
// under updated parameters.
type Step struct {
	State   *EncodedState
	Forward *Forward
	Action  int
}

// Policy adapts an Agent to the simulator's Policy interface.
//
// In greedy mode it picks the argmax action; otherwise it samples from the
// policy distribution using Rng (training behaviour). When Record is true,
// every decision's Forward pass and action are appended to Steps so the A2C
// trainer can compute losses after the episode terminates.
type Policy struct {
	Agent *Agent
	// Rng drives action sampling; required unless Greedy.
	Rng *rand.Rand
	// Greedy selects argmax actions (evaluation mode).
	Greedy bool
	// Temperature, when positive and Greedy is false, sharpens the sampling
	// distribution (pᵢ ∝ exp(log πᵢ/τ)). Ignored in Greedy mode.
	Temperature float64
	// Record keeps per-decision tapes for training.
	Record bool
	// DisableIdle masks the ∅ action at every decision (ablation: READYS
	// reduced to a pure list scheduler that must fill the asking resource).
	DisableIdle bool
	// Steps holds the recorded decisions of the current episode.
	Steps []Step

	// InferenceTime accumulates wall-clock time spent in Forward (used for
	// the Figure 7 experiment) and InferenceCount the number of decisions.
	InferenceTime  time.Duration
	InferenceCount int

	// feats is F(i) materialised over the whole graph, for the paths that
	// rebuild the state on every decision (EncodeFault: training, and the
	// oracle left by DisableIncrementalState); see unionFeats. The incremental
	// encoder keeps its own append-only F.
	feats [][taskgraph.NumKernels]float64

	// inc maintains the decision state incrementally on the non-recording
	// path; nil falls back to EncodeFault on every decision. engine, when set,
	// replaces the tape forward with the serving engine at prec.
	inc    *incrementalEncoder
	engine *serveEngine
	batch  *Batcher
	lpBuf  []float64 // reusable result buffer for batched forwards
	prec   Precision
	// memo holds the forwards of one state version only: memoAt is that
	// version, and the map is emptied when the state moves past it. The
	// version counters never go back, so nothing dropped could have hit again.
	memo   map[memoKey]memoVal
	memoAt stateVersion
	noMemo bool
}

// stateVersion is the (NumDone, FaultEpoch, GraphEpoch) triple within which a
// memoKey identifies a decision state.
type stateVersion struct{ numDone, faultEpoch, graphEpoch int }

// memoKey identifies a decision state up to forward-pass equivalence within
// one stateVersion: there, task starts are the only mutations and they move
// exactly one task from Ready to Running, so the counts pin the window
// contents; Now and the asking resource's type and speed pin the remaining
// features. Two decisions with equal keys see bit-identical EncodedStates and
// hence identical log-probabilities.
type memoKey struct {
	numRunning, numReady int
	nowBits, speedBits   uint64
	isCPU, allowIdle     bool
}

type memoVal struct {
	logProbs []float64
	idleIdx  int
}

// NewPolicy returns an evaluation-mode (greedy) policy for the agent. The
// decision state is maintained incrementally and the forward pass runs on the
// allocation-free float64 serving engine — both bit-identical to the full
// rebuild + tape path (see the equivalence tests) and individually revertible
// via DisableIncrementalState / DisableServingEngine. The DenseProp ablation
// keeps the tape forward (the engine only implements the sparse hot path).
func NewPolicy(agent *Agent) *Policy {
	p := &Policy{Agent: agent, Greedy: true}
	p.inc = newIncrementalEncoder(agent.Cfg.Window, agent.Cfg.Directed, agent.Cfg.FaultFeatures)
	if !agent.Cfg.DenseProp {
		p.engine = newServeEngine(agent, PrecisionFloat64)
	}
	return p
}

// NewServingPolicy returns a greedy policy that evaluates the network on the
// allocation-free serving engine at the given precision instead of the
// autograd tape. PrecisionFloat64 decides bit-identically to NewPolicy;
// float32/int8 trade bounded decision divergence for latency. Serving
// policies cannot record training steps.
func NewServingPolicy(agent *Agent, prec Precision) *Policy {
	p := NewPolicy(agent)
	p.EnableServing(prec)
	return p
}

// NewTrainingPolicy returns a sampling, recording policy for the agent.
// Training always runs the float64 tape path with full state rebuilds.
func NewTrainingPolicy(agent *Agent, rng *rand.Rand) *Policy {
	return &Policy{Agent: agent, Rng: rng, Record: true}
}

// EnableServing switches the policy's forward pass to the serving engine at
// the given precision. Panics if the policy records training steps — the
// reduced-precision path must never feed the trainer — or if the agent uses
// the DenseProp ablation (which keeps the tape forward).
func (p *Policy) EnableServing(prec Precision) {
	if p.Record {
		panic("core: serving precision on a recording (training) policy")
	}
	p.engine = newServeEngine(p.Agent, prec)
	p.prec = prec
}

// UseBatcher routes the policy's serving forwards through a shared Batcher:
// concurrent decisions on the same model coalesce into one row-batched pass.
// The batcher's precision replaces any engine precision; at
// core.PrecisionFloat64 decisions stay bit-identical to the unbatched path.
// Panics on a recording (training) policy — batched forwards have no tape.
func (p *Policy) UseBatcher(b *Batcher) {
	if p.Record {
		panic("core: batched serving on a recording (training) policy")
	}
	p.batch = b
	p.prec = b.Precision()
}

// DisableIncrementalState forces a full EncodeFault rebuild on every decision
// (the incremental path's oracle; also what training uses).
func (p *Policy) DisableIncrementalState() { p.inc = nil }

// DisableDecisionMemo turns off within-round forward memoization.
func (p *Policy) DisableDecisionMemo() { p.noMemo = true }

// DisableServingEngine reverts the forward pass to the autograd tape.
// Combined with DisableIncrementalState and DisableDecisionMemo this
// reproduces the pre-optimization decision path exactly — the oracle
// configuration for equivalence tests and benchmarks.
func (p *Policy) DisableServingEngine() { p.engine = nil }

// IncrementalStats reports the incremental encoder's work counters (zero
// value when the incremental path is disabled).
func (p *Policy) IncrementalStats() IncrementalStats {
	if p.inc == nil {
		return IncrementalStats{}
	}
	return p.inc.stats
}

// Reset implements sim.Policy: it clears the episode recording, the
// descendant features, the incremental state, and the decision memo.
func (p *Policy) Reset(s *sim.State) {
	p.feats = nil
	p.Steps = p.Steps[:0]
	if p.inc != nil {
		p.inc.reset()
	}
	clear(p.memo)
}

// unionFeats returns the descendant features of the whole graph for an
// EncodeFault rebuild, recomputing them on the first decision of an episode
// and whenever the graph has grown since (streaming job arrival) — O(history)
// per arrival, which only training and the rebuild oracle pay.
func (p *Policy) unionFeats(g *taskgraph.Graph) [][taskgraph.NumKernels]float64 {
	if len(p.feats) != g.NumTasks() {
		p.feats = taskgraph.DescendantFeatures(g)
	}
	return p.feats
}

// Decide implements sim.Policy.
func (p *Policy) Decide(s *sim.State, r int) int {
	if p.Record {
		if p.engine != nil {
			panic("core: serving precision on a recording (training) policy")
		}
		return p.decideTape(s, r)
	}

	var es *EncodedState
	if p.inc != nil {
		es = p.inc.Encode(s, r)
	} else {
		es = EncodeFault(s, r, p.unionFeats(s.Graph), p.Agent.Cfg.Window, p.Agent.Cfg.Directed, p.Agent.Cfg.FaultFeatures)
	}
	if p.DisableIdle {
		es.AllowIdle = false
	}

	var key memoKey
	if !p.noMemo {
		if at := (stateVersion{s.NumDone, s.FaultEpoch, s.GraphEpoch}); at != p.memoAt {
			clear(p.memo)
			p.memoAt = at
		}
		key = memoKey{
			numRunning: len(s.Running),
			numReady:   len(s.Ready),
			nowBits:    math.Float64bits(s.Now),
			speedBits:  math.Float64bits(s.SpeedFactor(r)),
			isCPU:      s.Platform.Resources[r].Type == platform.CPU,
			allowIdle:  es.AllowIdle,
		}
		if v, ok := p.memo[key]; ok {
			p.InferenceCount++
			return p.act(es, v.logProbs, v.idleIdx)
		}
	}

	start := time.Now()
	var logProbs []float64
	var idleIdx int
	if p.batch != nil {
		logProbs, idleIdx = p.batch.Forward(es, p.lpBuf)
		p.lpBuf = logProbs // reuse the (possibly grown) buffer next decision
	} else if p.engine != nil {
		logProbs, idleIdx = p.engine.forward(es)
	} else {
		fw := p.Agent.Forward(es)
		logProbs = fw.LogProbs.Value.Data[:fw.NumActions]
		idleIdx = fw.IdleIndex
		// Copy out of the tape before releasing its buffers to the pool.
		logProbs = append([]float64(nil), logProbs...)
		fw.Binding.Release()
	}
	p.InferenceTime += time.Since(start)
	p.InferenceCount++

	if p.noMemo {
		return p.act(es, logProbs, idleIdx)
	}
	if p.memo == nil {
		p.memo = make(map[memoKey]memoVal)
	}
	stored := append([]float64(nil), logProbs...)
	p.memo[key] = memoVal{logProbs: stored, idleIdx: idleIdx}
	return p.act(es, stored, idleIdx)
}

// act picks an action from the log-probabilities and maps it to a task.
func (p *Policy) act(es *EncodedState, logProbs []float64, idleIdx int) int {
	var action int
	switch {
	case p.Greedy:
		action = argmaxLogProbs(logProbs)
	case p.Temperature > 0:
		action = sampleTemperatureLogProbs(p.Rng, logProbs, p.Temperature)
	default:
		action = sampleLogProbs(p.Rng, logProbs)
	}
	if action == idleIdx && idleIdx >= 0 {
		return sim.NoTask
	}
	return es.ReadyTasks[action]
}

// decideTape is the original tape-forward path used for training: the full
// EncodeFault rebuild, the autograd forward, and step recording.
func (p *Policy) decideTape(s *sim.State, r int) int {
	es := EncodeFault(s, r, p.unionFeats(s.Graph), p.Agent.Cfg.Window, p.Agent.Cfg.Directed, p.Agent.Cfg.FaultFeatures)
	if p.DisableIdle {
		es.AllowIdle = false
	}
	start := time.Now()
	fw := p.Agent.Forward(es)
	p.InferenceTime += time.Since(start)
	p.InferenceCount++

	var action int
	switch {
	case p.Greedy:
		action = fw.Argmax()
	case p.Temperature > 0:
		action = fw.SampleTemperature(p.Rng, p.Temperature)
	default:
		action = fw.Sample(p.Rng)
	}
	idleIdx := fw.IdleIndex
	p.Steps = append(p.Steps, Step{State: es, Forward: fw, Action: action})
	if action == idleIdx && idleIdx >= 0 {
		return sim.NoTask
	}
	return es.ReadyTasks[action]
}

// SaveCheckpoint writes the agent's parameters and architecture metadata.
func (a *Agent) SaveCheckpoint(path string, meta map[string]string) error {
	m := map[string]string{
		"window": strconv.Itoa(a.Cfg.Window),
		"layers": strconv.Itoa(a.Cfg.Layers),
		"hidden": strconv.Itoa(a.Cfg.Hidden),
	}
	if a.Cfg.FaultFeatures {
		// Written only when set, so flag-off checkpoints stay byte-identical
		// to ones produced before the flag existed.
		m["fault_features"] = "1"
	}
	for k, v := range meta {
		m[k] = v
	}
	return nn.SaveCheckpointFile(path, a.params, m)
}

// LoadCheckpoint restores the agent's parameters from a checkpoint produced
// by SaveCheckpoint; the architecture (window/layers/hidden) must match.
func (a *Agent) LoadCheckpoint(path string) (map[string]string, error) {
	return nn.LoadCheckpointFile(path, a.params)
}

// MeanEntropy returns the average policy entropy over the recorded steps —
// a diagnostic of exploration during training.
func (p *Policy) MeanEntropy() float64 {
	if len(p.Steps) == 0 {
		return 0
	}
	var s float64
	for _, st := range p.Steps {
		s += autograd.Scalar(st.Forward.Entropy())
	}
	return s / float64(len(p.Steps))
}
