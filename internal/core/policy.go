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

// Step records one decision of a training episode, off the tape: the chosen
// action and the scalars of the rollout-time forward pass that trainers read —
// the action's log-probability (PPO's ratio denominator), the policy entropy
// −Σ p log p, and the critic's V(s) (advantages and bootstrapped targets) —
// plus what the EpisodeLog it belongs to needs to rebuild the decision's state
// (EpisodeLog.State). The trainers re-evaluate that state on a tape at update
// time (rl.Trainer stacks an episode's states into one pass); the scalars
// here have the bits that evaluation reproduces.
type Step struct {
	Action int

	LogProb, Entropy, Value float64

	// Forward is a vestige of the per-decision tapes: an empty, non-nil
	// Forward (nil Binding, nil nodes) kept because benchmark/train.go calls
	// st.Forward.Binding.Release() on every recorded step. It goes when a
	// [benchmark] issue drops that call.
	Forward *Forward

	// What differs from decision to decision, cut from the log's arenas: the
	// window it saw, the dynamic feature columns of every row, the resource
	// context and the ready rows.
	window    int
	dyn, proc []float64
	ready     []int
	allowIdle bool
}

// Idle reports whether the step chose the ∅ action.
func (st Step) Idle() bool { return st.allowIdle && st.Action == len(st.ready) }

// releasedForward is what every recorded Step.Forward points at.
var releasedForward = &Forward{IdleIndex: -1}

// Policy adapts an Agent to the simulator's Policy interface.
//
// In greedy mode it picks the argmax action; otherwise it samples from the
// policy distribution using Rng (training behaviour). When Record is true,
// every decision's state, action and forward-pass scalars are recorded in Log
// so the trainers can compute losses after the episode terminates.
type Policy struct {
	Agent *Agent
	// Rng drives action sampling; required unless Greedy.
	Rng *rand.Rand
	// Greedy selects argmax actions (evaluation mode).
	Greedy bool
	// Temperature, when positive and Greedy is false, sharpens the sampling
	// distribution (pᵢ ∝ exp(log πᵢ/τ)). Ignored in Greedy mode.
	Temperature float64
	// Record keeps every decision as a Step for training.
	Record bool
	// DisableIdle masks the ∅ action at every decision (ablation: READYS
	// reduced to a pure list scheduler that must fill the asking resource).
	DisableIdle bool
	// Log is where a recording policy keeps the current episode; Reset
	// empties it. A trainer that reuses policy and logs points Log at the
	// episode's log before the rollout; left nil, the policy makes itself a
	// private one at the first recorded decision.
	Log *EpisodeLog
	// Steps holds the recorded decisions of the current episode: Log.Steps().
	Steps []Step

	// Stats counts every decision the policy has made, across episodes.
	Stats DecideStats

	// feats is F(i) materialised over the whole graph, for the path that
	// rebuilds the state on every decision (EncodeFault, the oracle of
	// NewReferencePolicy); see unionFeats. The incremental encoder keeps
	// its own append-only F.
	feats [][taskgraph.NumKernels]float64

	// inc maintains the decision state incrementally; nil falls back to
	// EncodeFault on every decision.
	inc *incrementalEncoder
	// bind and batch run every forward, Agent.ForwardBatch at width 1 on an
	// inference tape made at the first decision and kept from then on.
	bind  *nn.Binding
	batch StateBatch
	// memo holds the forwards of one state version only: memoAt is that
	// version, and the map is emptied when the state moves past it. The
	// version counters never go back, so nothing dropped could have hit again.
	memo   map[memoKey][]float64
	memoAt stateVersion
	noMemo bool
	// memoSlab backs the memoised log-probabilities; it is rewound where the
	// map is emptied, so storing a forward costs no allocation once it has
	// grown to one version's worth.
	memoSlab []float64
}

// DecideStats counts a policy's decisions and what they cost. Every field is
// a plain add on the decision path, so counting costs no allocation and moves
// no decision.
type DecideStats struct {
	// Decisions counts Decide calls; Forwards those that ran the network,
	// the rest being memo hits (MemoHits).
	Decisions, Forwards int
	// WindowRows sums the window's row count over every decision, memo hits
	// included; Rebuilds counts the decisions whose window was recomputed
	// rather than carried over (all of them without the incremental encoder).
	WindowRows, Rebuilds int
	// Idle counts the decisions that answered ∅ (sim.NoTask).
	Idle int
	// ForwardTime is the wall-clock time spent in forwards.
	ForwardTime time.Duration
}

// MemoHits is how many decisions reused a memoised forward.
func (d DecideStats) MemoHits() int { return d.Decisions - d.Forwards }

// Sub returns the counts accumulated since an earlier reading o.
func (d DecideStats) Sub(o DecideStats) DecideStats {
	return DecideStats{
		Decisions:   d.Decisions - o.Decisions,
		Forwards:    d.Forwards - o.Forwards,
		WindowRows:  d.WindowRows - o.WindowRows,
		Rebuilds:    d.Rebuilds - o.Rebuilds,
		Idle:        d.Idle - o.Idle,
		ForwardTime: d.ForwardTime - o.ForwardTime,
	}
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

// NewPolicy returns an evaluation-mode (greedy) policy for the agent. The
// decision state is maintained incrementally and forwards are memoised within
// a state version — both bit-identical to NewReferencePolicy's full rebuild
// (see the equivalence tests).
func NewPolicy(agent *Agent) *Policy {
	p := &Policy{Agent: agent, Greedy: true}
	p.inc = newIncrementalEncoder(agent.Cfg.Window, agent.Cfg.Directed, agent.Cfg.FaultFeatures)
	return p
}

// NewReferencePolicy returns the reference implementation the equivalence
// tests compare every other policy against: a greedy policy that rebuilds the
// state with EncodeFault on every decision and memoises nothing.
func NewReferencePolicy(agent *Agent) *Policy {
	return &Policy{Agent: agent, Greedy: true, noMemo: true}
}

// NewTrainingPolicy returns a sampling, recording policy for the agent.
// Rollouts run where serving runs — the incremental encoder and the inference
// tape, which also evaluates the critic here — and leave gradients to the
// update. The policy may be kept and rolled out episode after episode: Reset
// starts each one from nothing but the allocated memory, so re-pointing Rng
// (and Log) is all a new episode needs.
func NewTrainingPolicy(agent *Agent, rng *rand.Rand) *Policy {
	p := NewPolicy(agent)
	p.Greedy, p.Rng, p.Record = false, rng, true
	return p
}

// Reset implements sim.Policy: it clears the episode recording, the
// descendant features, the incremental state, and the decision memo. Handed
// the frozen graph of its previous episode again, the incremental encoder
// keeps what it derived from the graph alone (F(i), sorted neighbour lists).
func (p *Policy) Reset(s *sim.State) {
	p.feats = nil
	p.Steps = nil
	if p.Log != nil {
		p.Log.Reset()
	}
	if p.inc != nil {
		p.inc.reset(s.Graph)
	}
	p.clearMemo()
}

// clearMemo drops every memoised forward and rewinds the slab under them.
func (p *Policy) clearMemo() {
	clear(p.memo)
	p.memoSlab = p.memoSlab[:0]
}

// unionFeats returns the descendant features of the whole graph for an
// EncodeFault rebuild, recomputing them on the first decision of an episode
// and whenever the graph has grown since (streaming job arrival) — O(history)
// per arrival, which only the rebuild oracle pays.
func (p *Policy) unionFeats(g *taskgraph.Graph) [][taskgraph.NumKernels]float64 {
	if len(p.feats) != g.NumTasks() {
		p.feats = taskgraph.DescendantFeatures(g)
	}
	return p.feats
}

// Decide implements sim.Policy.
func (p *Policy) Decide(s *sim.State, r int) int {
	var es *EncodedState
	rebuilt := true
	if p.inc != nil {
		es, rebuilt = p.inc.Encode(s, r)
	} else {
		es = EncodeFault(s, r, p.unionFeats(s.Graph), p.Agent.Cfg.Window, p.Agent.Cfg.Directed, p.Agent.Cfg.FaultFeatures)
	}
	p.Stats.Decisions++
	p.Stats.WindowRows += len(es.Nodes)
	if rebuilt {
		p.Stats.Rebuilds++
	}
	if p.DisableIdle {
		es.AllowIdle = false
	}

	// A recording policy never memoises: every Step carries its own forward.
	memo := !p.noMemo && !p.Record
	var key memoKey
	if memo {
		if at := (stateVersion{s.NumDone, s.FaultEpoch, s.GraphEpoch}); at != p.memoAt {
			p.clearMemo()
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
		if logProbs, ok := p.memo[key]; ok {
			return p.act(es, logProbs, 0)
		}
	}

	start := time.Now()
	if p.bind == nil {
		p.bind = nn.NewInferenceBinding()
	}
	p.bind.Reset()
	p.batch.skipCritic = !p.Record
	fw := p.Agent.ForwardBatch(p.bind, p.batch.wrap(es))
	logProbs := fw.LogProbs.Value.Data // the tape's until the next Reset
	var value float64
	if p.Record {
		value = autograd.Scalar(fw.Value)
	}
	p.Stats.ForwardTime += time.Since(start)
	p.Stats.Forwards++

	if !memo {
		return p.act(es, logProbs, value)
	}
	if p.memo == nil {
		p.memo = make(map[memoKey][]float64)
	}
	// Entries stored earlier keep pointing into the old array if this append
	// moves the slab; they stay valid there until the next clearMemo.
	n := len(p.memoSlab)
	p.memoSlab = append(p.memoSlab, logProbs...)
	stored := p.memoSlab[n:len(p.memoSlab):len(p.memoSlab)]
	p.memo[key] = stored
	return p.act(es, stored, 0)
}

// act picks an action from the log-probabilities, records the decision on a
// recording policy (value is the forward's V(s)), and maps the action to a
// task.
func (p *Policy) act(es *EncodedState, logProbs []float64, value float64) int {
	var action int
	switch {
	case p.Greedy:
		action = argmaxLogProbs(logProbs)
	case p.Temperature > 0:
		action = sampleTemperatureLogProbs(p.Rng, logProbs, p.Temperature)
	default:
		action = sampleLogProbs(p.Rng, logProbs)
	}
	if p.Record {
		// The sum mirrors Forward.Entropy on the tape: exp, product rounded
		// to float64 (no fused multiply-add), added in index order, negated.
		var plogp float64
		for _, lp := range logProbs {
			plogp += float64(math.Exp(lp) * lp)
		}
		if p.Log == nil {
			p.Log = NewEpisodeLog()
		}
		p.Log.record(es, action, logProbs[action], -plogp, value)
		p.Steps = p.Log.steps
	}
	if action == len(es.ReadyTasks) {
		p.Stats.Idle++
		return sim.NoTask // only legal when es.AllowIdle
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
		s += st.Entropy
	}
	return s / float64(len(p.Steps))
}
