package core

import (
	"math"

	"readys/internal/tensor"
)

// serveEngine evaluates the agent's policy head without the autograd tape:
// preallocated scratch and no per-decision allocations. It reproduces
// Agent.Forward's log-probabilities bit for bit (same kernels, same operation
// order), and reads the agent's parameters without ever writing them. The
// critic head is evaluated only when a training rollout asks for V(s); serving
// needs the action distribution alone.
type serveEngine struct {
	agent *Agent
	// critic makes forwardF64 also leave the state value in value, with the
	// bits of Forward.Value.
	critic bool
	value  float64

	// Scratch. procEmb is a 1×hidden view of cat's first half; as a local it
	// would be moved to the heap on every ∅-allowing forward.
	h, tmp, ready, pooled, cat, score, procEmb tensor.Matrix
	argBuf                                     []int

	logits   []float64
	logProbs []float64
}

// forward computes the log-probabilities over the state's actions. The
// returned slice is engine-owned and valid until the next call.
func (en *serveEngine) forward(es *EncodedState) (logProbs []float64, idleIdx int) {
	if len(es.ReadyRows) == 0 {
		panic("core: serving forward with no ready task")
	}
	en.forwardF64(es)

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
