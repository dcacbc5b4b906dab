package core

import (
	"fmt"
	"math"

	"readys/internal/nn"
	"readys/internal/tensor"
)

// Precision selects the numeric tier of the serving forward path. Training
// always runs float64 — rollouts on this engine, updates on the autograd
// tape; the float32 tier exists only for inference behind an explicit knob.
type Precision int

const (
	// PrecisionFloat64 runs the serving engine in float64. Every operation
	// replicates the tape forward bit for bit, so decisions are identical to
	// the training-path policy — it is the tape's oracle-equivalent without
	// tape bookkeeping.
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 converts weights and activations to float32.
	PrecisionFloat32
)

// String returns the flag-friendly name of the precision tier.
func (p Precision) String() string {
	switch p {
	case PrecisionFloat64:
		return "float64"
	case PrecisionFloat32:
		return "float32"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision parses a precision tier name as accepted by the serving
// knobs ("float64"/"f64", "float32"/"f32").
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "float64", "f64", "fp64", "":
		return PrecisionFloat64, nil
	case "float32", "f32", "fp32":
		return PrecisionFloat32, nil
	}
	return 0, fmt.Errorf("core: unknown precision %q (want float64 or float32)", s)
}

// serveEngine evaluates the agent's policy head without the autograd tape:
// preallocated scratch, no per-decision allocations, and optionally float32.
// The float64 tier reproduces Agent.Forward's log-probabilities bit for bit
// (same kernels, same operation order); float32 uses weight copies converted
// once at construction. The critic head is evaluated only when a
// training rollout asks for V(s) (float64 tier); serving needs the action
// distribution alone.
type serveEngine struct {
	agent *Agent
	prec  Precision
	// critic makes forwardF64 also leave the state value in value, with the
	// bits of Forward.Value.
	critic bool
	value  float64

	// Converted weights, built once for the float32 tier: input, gcn layers,
	// actor, proc, idle in that order.
	layers []*nn.ServingLayer

	// float64 scratch. procEmb is a 1×hidden view of cat's first half; as a
	// local it would be moved to the heap on every ∅-allowing forward.
	h, tmp, ready, pooled, cat, score, procEmb tensor.Matrix
	argBuf                                     []int

	// float32 scratch.
	x32, p32, h32, tmp32, ready32, pooled32, cat32, score32 tensor.Matrix32
	val32                                                   []float32

	logits   []float64
	logProbs []float64
}

// newServeEngine builds an engine for the agent at the given precision. The
// engine reads the agent's parameters (float64) or private converted copies
// (float32); it never writes them.
func newServeEngine(a *Agent, prec Precision) *serveEngine {
	en := &serveEngine{agent: a, prec: prec}
	if prec != PrecisionFloat64 {
		en.layers = append(en.layers, nn.NewServingLayer(a.input.W, a.input.B))
		for _, g := range a.gcn {
			en.layers = append(en.layers, nn.NewServingLayer(g.W, g.B))
		}
		en.layers = append(en.layers,
			nn.NewServingLayer(a.actor.W, a.actor.B),
			nn.NewServingLayer(a.proc.W, a.proc.B),
			nn.NewServingLayer(a.idle.W, a.idle.B))
	}
	return en
}

// forward computes the log-probabilities over the state's actions. The
// returned slice is engine-owned and valid until the next call.
func (en *serveEngine) forward(es *EncodedState) (logProbs []float64, idleIdx int) {
	if len(es.ReadyRows) == 0 {
		panic("core: serving forward with no ready task")
	}
	if en.prec == PrecisionFloat64 {
		en.forwardF64(es)
	} else {
		en.forwardReduced(es)
	}

	k := len(en.logits)
	if cap(en.logProbs) < k {
		en.logProbs = make([]float64, k)
	}
	en.logProbs = en.logProbs[:k]
	logSoftmaxInto(en.logits, en.logProbs)
	idleIdx = -1
	if es.AllowIdle {
		idleIdx = len(es.ReadyRows)
	}
	return en.logProbs, idleIdx
}

// forwardF64 mirrors Agent.Forward operation by operation on the shared
// float64 kernels; see the bit-identity test against the tape forward.
func (en *serveEngine) forwardF64(es *EncodedState) {
	a := en.agent
	n, hid := len(es.Nodes), a.Cfg.Hidden

	// h = ReLU(X*W_in + b_in)
	resizeMatrix(&en.h, n, hid)
	tensor.LinearReLUInto(es.X, a.input.W.Value, a.input.B.Value, &en.h)

	// GCN stack: h = ReLU(SpMM(norm, h)*W + b)
	resizeMatrix(&en.tmp, n, hid)
	for _, g := range a.gcn {
		tensor.SpMMInto(es.Norm, &en.h, &en.tmp)
		tensor.LinearReLUInto(&en.tmp, g.W.Value, g.B.Value, &en.h)
	}

	// Actor scores for the ready rows.
	nActions := len(es.ReadyRows)
	if es.AllowIdle {
		nActions++
	}
	if cap(en.logits) < nActions {
		en.logits = make([]float64, nActions)
	}
	en.logits = en.logits[:nActions]
	resizeMatrix(&en.ready, len(es.ReadyRows), hid)
	tensor.GatherRowsInto(&en.h, es.ReadyRows, &en.ready)
	resizeMatrix(&en.score, len(es.ReadyRows), 1)
	tensor.MatMulInto(&en.ready, a.actor.W.Value, &en.score)
	tensor.AddRowVectorInto(&en.score, a.actor.B.Value, &en.score)
	copy(en.logits, en.score.Data)

	if es.AllowIdle {
		// ∅ score: [ReLU(proc*W_p + b_p) | maxpool(h)] * W_idle + b_idle.
		resizeMatrix(&en.cat, 1, 2*hid)
		en.procEmb = tensor.Matrix{Rows: 1, Cols: hid, Data: en.cat.Data[:hid]}
		tensor.LinearReLUInto(es.Proc, a.proc.W.Value, a.proc.B.Value, &en.procEmb)
		pooled := tensor.Matrix{Rows: 1, Cols: hid, Data: en.cat.Data[hid:]}
		if cap(en.argBuf) < hid {
			en.argBuf = make([]int, hid)
		}
		tensor.MaxRowsInto(&en.h, &pooled, en.argBuf[:hid])
		resizeMatrix(&en.score, 1, 1)
		tensor.MatMulInto(&en.cat, a.idle.W.Value, &en.score)
		en.logits[nActions-1] = en.score.Data[0] + a.idle.B.Value.Data[0]
	}

	if en.critic {
		// V(s) = meanpool(h)*W_c + b_c.
		resizeMatrix(&en.pooled, 1, hid)
		tensor.MeanRowsInto(&en.h, &en.pooled)
		resizeMatrix(&en.score, 1, 1)
		tensor.MatMulInto(&en.pooled, a.critic.W.Value, &en.score)
		en.value = en.score.Data[0] + a.critic.B.Value.Data[0]
	}
}

// forwardReduced is the float32 forward: same structure as forwardF64 on the
// float32 kernels, with the log-softmax still computed in float64 from the
// float32 scores.
func (en *serveEngine) forwardReduced(es *EncodedState) {
	a := en.agent
	hid := a.Cfg.Hidden
	input, gcns := en.layers[0], en.layers[1:1+len(a.gcn)]
	actor, proc, idle := en.layers[1+len(a.gcn)], en.layers[2+len(a.gcn)], en.layers[3+len(a.gcn)]

	en.x32.SetFrom(es.X)
	if cap(en.val32) < len(es.Norm.Val) {
		en.val32 = make([]float32, len(es.Norm.Val))
	}
	en.val32 = en.val32[:len(es.Norm.Val)]
	for i, v := range es.Norm.Val {
		en.val32[i] = float32(v)
	}

	tensor.MatMul32SkipInto(&en.x32, &input.W32, &en.h32)
	addRowReLU32(&en.h32, input.B32.Data)
	for _, g := range gcns {
		tensor.SpMM32Into(es.Norm, en.val32, &en.h32, &en.tmp32)
		tensor.MatMul32SkipInto(&en.tmp32, &g.W32, &en.h32)
		addRowReLU32(&en.h32, g.B32.Data)
	}

	nActions := len(es.ReadyRows)
	if es.AllowIdle {
		nActions++
	}
	if cap(en.logits) < nActions {
		en.logits = make([]float64, nActions)
	}
	en.logits = en.logits[:nActions]
	en.ready32.Reset(len(es.ReadyRows), hid)
	for i, r := range es.ReadyRows {
		copy(en.ready32.Row(i), en.h32.Row(r))
	}
	tensor.MatMul32SkipInto(&en.ready32, &actor.W32, &en.score32)
	for i := range es.ReadyRows {
		en.logits[i] = float64(en.score32.Data[i] + actor.B32.Data[0])
	}

	if es.AllowIdle {
		en.p32.SetFrom(es.Proc)
		en.cat32.Reset(1, 2*hid)
		procEmb := tensor.Matrix32{Rows: 1, Cols: hid, Data: en.cat32.Data[:hid]}
		tensor.MatMul32SkipInto(&en.p32, &proc.W32, &procEmb)
		for j := range procEmb.Data {
			v := procEmb.Data[j] + proc.B32.Data[j]
			if v < 0 {
				v = 0
			}
			procEmb.Data[j] = v
		}
		// Column-wise max pool over h (first row, then strict improvements).
		pooled := en.cat32.Data[hid:]
		copy(pooled, en.h32.Row(0))
		for i := 1; i < en.h32.Rows; i++ {
			row := en.h32.Row(i)
			for j, v := range row {
				if v > pooled[j] {
					pooled[j] = v
				}
			}
		}
		tensor.MatMul32SkipInto(&en.cat32, &idle.W32, &en.score32)
		en.logits[nActions-1] = float64(en.score32.Data[0] + idle.B32.Data[0])
	}
}

// logSoftmaxInto writes the log-softmax of logits into dst (len(dst) ==
// len(logits)), replicating autograd.LogSoftmaxCol in float64.
func logSoftmaxInto(logits, dst []float64) {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(v - maxv)
	}
	logZ := maxv + math.Log(sum)
	for i, v := range logits {
		dst[i] = v - logZ
	}
}

func addRowReLU32(m *tensor.Matrix32, bias []float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			v += bias[j]
			if v < 0 {
				v = 0
			}
			row[j] = v
		}
	}
}
