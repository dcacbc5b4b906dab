package core

import (
	"fmt"
	"math"
	"math/rand"

	"readys/internal/autograd"
	"readys/internal/nn"
)

// Config holds the agent's architectural hyper-parameters (§V-D).
type Config struct {
	// Window is the sub-DAG depth w (the paper searches w ∈ [0, 3]).
	Window int
	// Layers is the number of GCN layers g (the paper uses g ≥ w so that
	// information can flow from the window frontier to the ready tasks).
	Layers int
	// Hidden is the embedding width.
	Hidden int
	// Directed switches the GCN propagation operator from the symmetric
	// D̃^{-1/2}ÃD̃^{-1/2} of the paper to the row-normalised downstream
	// operator D̃^{-1}Ã (ablation: information flows only from a task to its
	// descendants).
	Directed bool
	// FaultFeatures appends the fault-state block (resource availability,
	// speed factor, normalised fault-epoch counter) to the resource context,
	// widening the input and proc layers to NodeFeatureWidth(true) /
	// ProcFeatureWidth(true). Off by default: the flag-off encoding and
	// parameter layout are bit-identical to agents built before the flag
	// existed, so legacy checkpoints load unchanged.
	FaultFeatures bool
	// Seed initialises the parameters.
	Seed int64
}

// Agent is the READYS policy/value network of Fig. 2.
type Agent struct {
	Cfg Config

	input  *nn.Linear // NodeFeatureWidth -> Hidden
	gcn    []*nn.GCN  // Hidden -> Hidden, Cfg.Layers of them
	actor  *nn.Linear // Hidden -> 1: per-ready-task score
	proc   *nn.Linear // NumProcFeatures -> Hidden: processor embedding
	idle   *nn.Linear // 2*Hidden -> 1: ∅-action score
	critic *nn.Linear // Hidden -> 1: state value

	params *nn.ParamSet
}

// NewAgent builds an agent with freshly initialised parameters.
func NewAgent(cfg Config) *Agent {
	if cfg.Hidden <= 0 || cfg.Layers < 0 || cfg.Window < 0 {
		panic(fmt.Sprintf("core: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := &Agent{Cfg: cfg}
	a.input = nn.NewLinear(rng, "input", NodeFeatureWidth(cfg.FaultFeatures), cfg.Hidden)
	for l := 0; l < cfg.Layers; l++ {
		a.gcn = append(a.gcn, nn.NewGCN(rng, fmt.Sprintf("gcn%d", l), cfg.Hidden, cfg.Hidden))
	}
	a.actor = nn.NewLinear(rng, "actor", cfg.Hidden, 1)
	a.proc = nn.NewLinear(rng, "proc", ProcFeatureWidth(cfg.FaultFeatures), cfg.Hidden)
	a.idle = nn.NewLinear(rng, "idle", 2*cfg.Hidden, 1)
	a.critic = nn.NewLinear(rng, "critic", cfg.Hidden, 1)

	a.params = nn.NewParamSet()
	a.params.Add(a.input.Params()...)
	for _, g := range a.gcn {
		a.params.Add(g.Params()...)
	}
	a.params.Add(a.actor.Params()...)
	a.params.Add(a.proc.Params()...)
	a.params.Add(a.idle.Params()...)
	a.params.Add(a.critic.Params()...)
	return a
}

// Params exposes the trainable parameters (for the optimizer and
// checkpointing).
func (a *Agent) Params() *nn.ParamSet { return a.params }

// Clone returns a new agent with the same architecture and a deep copy of the
// parameter values. The clone shares nothing mutable with the receiver, so
// clone and original can train or infer concurrently without coordination.
func (a *Agent) Clone() *Agent {
	c := NewAgent(a.Cfg)
	if err := c.params.CopyValuesFrom(a.params); err != nil {
		// Same Cfg always produces an identical parameter layout.
		panic(fmt.Sprintf("core: cloning agent: %v", err))
	}
	return c
}

// Forward is the result of one policy/value evaluation: everything a trainer
// needs to build its loss on the pass's tape. Agent.Forward evaluates one
// state; Agent.ForwardBatch a stack of d, in which case LogProbs and Value
// hold every state's entries one after the other.
type Forward struct {
	Binding *nn.Binding
	// LogProbs is the NumActions x 1 log-softmax over actions: one score per
	// ready task, plus — when the ∅ action is legal — a final idle entry.
	// At batch width d each state's actions form one range of the column
	// (StateBatch.ActionIndex), normalised on its own.
	LogProbs *autograd.Node
	// Value is the critic's state-value estimate, d x 1; nil when the batch
	// skips the critic (a policy that records nothing).
	Value *autograd.Node
	// IdleIndex is the action index of ∅, or -1 when masked (or at d > 1,
	// where each state has its own).
	IdleIndex int
	// NumActions is the action-space size, summed over the stacked states.
	NumActions int

	actionSegs []int
}

// Forward evaluates the network on an encoded state. The caller chooses an
// action from LogProbs (the most probable, or a sample) and maps it back through
// EncodedState.ReadyTasks. It is ForwardBatch at width 1 on a fresh binding.
//
// Concurrency: Forward only READS the agent's parameters. All intermediate
// state lives on a fresh per-call Binding/Tape, and gradients reach the
// shared parameters only when a trainer explicitly calls Tape.Backward. Any
// number of goroutines may therefore call Forward on the same agent
// concurrently, as long as no goroutine is mutating the parameters (training,
// LoadCheckpoint) at the same time. internal/serve relies on this
// contract; TestConcurrentInference enforces it under the race detector.
func (a *Agent) Forward(es *EncodedState) *Forward {
	fw := a.ForwardBatch(nn.NewBinding(), new(StateBatch).wrap(es))
	if es.AllowIdle {
		fw.IdleIndex = len(es.ReadyRows)
	}
	return &fw
}

// ForwardBatch evaluates the network once, on b's tape, for every state of
// the batch: the one description of the network the tape has. The dense
// products and the propagation run over all stacked rows; pooling,
// log-softmax and every parameter gradient go state by state through the
// batch's segment tables (see package autograd on batch width), so each
// state's log-probabilities and value, and after Backward the parameters'
// gradients, are bit for bit what one Forward per state in batch order
// produces. The op order below fixes the order in which the shared embedding
// h receives its critic, ∅-pool and actor gradients; changing it changes
// low-order bits of every training run. Policy.Decide is this pass at width 1
// on an inference binding, without the critic unless it records.
func (a *Agent) ForwardBatch(b *nn.Binding, sb *StateBatch) Forward {
	if sb.Len() == 0 {
		panic("core: ForwardBatch on an empty batch")
	}
	if !sb.single {
		sb.seal()
	}
	tp := b.Tape

	// Node embeddings: input projection then the GCN stack, propagating
	// through the CSR operator. Backward reads an embedding's shape only
	// (SpMM, gathers, pooling) and its ReLU mask, so each one goes back to the
	// tape as soon as the layer after it, and at the end the heads, have
	// read it.
	h := a.input.ForwardReLU(b, tp.Const(&sb.x), sb.nodeSegs)
	for _, g := range a.gcn {
		next := g.Forward(b, &sb.norm, h, sb.nodeSegs)
		tp.Drop(h)
		h = next
	}

	// Actor: one score per ready task.
	readyEmb := tp.GatherRows(h, sb.readyRows)
	scores := a.actor.Forward(b, readyEmb, sb.readySegs) // Σk x 1

	if sb.proc.Rows > 0 {
		// ∅ score from the processor embedding and the max-pooled DAG
		// representation (Fig. 2), one row per state that allows ∅.
		var idleSegs []int
		if !sb.single {
			idleSegs = sb.rowSegs[:sb.proc.Rows+1]
		}
		procEmb := a.proc.ForwardReLU(b, tp.Const(&sb.proc), idleSegs)
		pooled := tp.SegmentMaxRows(h, sb.nodeSegs)
		if sb.idleStates != nil {
			// A state that masks ∅ drops out here; its pooled row gets a zero
			// gradient, which adds an exact +0 to its rows of h.
			pooled = tp.GatherRows(pooled, sb.idleStates)
		}
		idleScore := a.idle.Forward(b, tp.ConcatCols(procEmb, pooled), idleSegs)
		scores = tp.ConcatRows(scores, idleScore)
		if sb.actionPerm != nil {
			scores = tp.GatherRows(scores, sb.actionPerm)
		}
	}

	logProbs := tp.SegmentLogSoftmax(scores, sb.actionSegs)

	// Critic: mean-pool then one-dimensional projection.
	var value *autograd.Node
	if !sb.skipCritic {
		value = a.critic.Forward(b, tp.SegmentMeanRows(h, sb.nodeSegs), sb.rowSegs)
	}
	tp.Drop(h)

	return Forward{
		Binding:    b,
		LogProbs:   logProbs,
		Value:      value,
		IdleIndex:  -1,
		NumActions: logProbs.Value.Rows,
		actionSegs: sb.actionSegs,
	}
}

// sampleLogProbs draws an index from a log-probability vector, consuming
// exactly one rng value.
func sampleLogProbs(rng *rand.Rand, logProbs []float64) int {
	u := rng.Float64()
	var cum float64
	for i, lp := range logProbs {
		cum += math.Exp(lp)
		if u < cum {
			return i
		}
	}
	return len(logProbs) - 1
}

// sampleTemperatureLogProbs draws an index from the temperature-sharpened
// distribution pᵢ ∝ exp(log πᵢ/τ), consuming one rng value (none for τ ≤ 0).
// τ→0 approaches the argmax, τ=1 is sampleLogProbs. Low-temperature sampling
// keeps the learned preferences while escaping the argmax's ∅ loops (a policy
// whose mode is ∅ in a recurring state idles on it until a forced round): on
// 4c0g, readys-sim -T 8 -sigma 0 -policy readys reads 5 870 ms with 314 of
// 434 decisions ∅ under the argmax, against HEFT's 1 978 ms; 2c2g does not
// collapse. The tables sample at τ = 0.25; serving takes the argmax.
func sampleTemperatureLogProbs(rng *rand.Rand, logProbs []float64, tau float64) int {
	if tau <= 0 {
		return argmaxLogProbs(logProbs)
	}
	maxv := math.Inf(-1)
	for _, lp := range logProbs {
		if v := lp / tau; v > maxv {
			maxv = v
		}
	}
	// The cumulative pass recomputes each weight rather than storing it: the
	// same expression gives the same bits.
	var z float64
	for _, lp := range logProbs {
		z += math.Exp(lp/tau - maxv)
	}
	u := rng.Float64() * z
	var cum float64
	for i, lp := range logProbs {
		cum += math.Exp(lp/tau - maxv)
		if u < cum {
			return i
		}
	}
	return len(logProbs) - 1
}

// argmaxLogProbs returns the index of the largest entry (first wins on ties).
func argmaxLogProbs(logProbs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range logProbs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Entropy builds the (differentiable) entropy of each state's policy
// distribution on the forward pass's tape, d x 1: H = −Σ p log p.
func (f *Forward) Entropy() *autograd.Node {
	tp := f.Binding.Tape
	p := tp.Exp(f.LogProbs)
	return tp.Neg(tp.SegmentSum(tp.Mul(p, f.LogProbs), f.actionSegs))
}
