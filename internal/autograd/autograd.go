// Package autograd implements tape-based reverse-mode automatic
// differentiation over dense matrices.
//
// A Tape records every operation in creation order; Backward seeds the
// gradient of a scalar (1x1) output and replays the tape in reverse,
// accumulating gradients into every node that requires them. The op set is
// exactly what the READYS policy/value network of the paper (Fig. 2) and the
// A2C loss need: matrix products (dense and sparse-propagation SpMM),
// bias broadcasts, ReLU/Tanh/Exp nonlinearities, node-set pooling (mean/max
// over rows), row gathering for ready-task selection, concatenation,
// log-softmax, and scalar arithmetic (scalars are represented as 1x1
// matrices).
//
// Batch width. One tape can evaluate a stack of d independent samples at
// once: their rows are stacked into one matrix and a segment table (see
// tensor.SegmentBounds) says which rows belong to which sample. Row-local ops
// need nothing more; the ops that reduce over a sample's rows (pooling,
// log-softmax, sums) and the ops that reduce over rows into a parameter
// gradient (MatMul's right operand, AddRowVector's vector) take the table and
// work range by range, so every sample's values and every parameter's
// gradient carry the bits d separate tapes would have produced, summed in
// sample order. A nil table is one sample: the unstacked case is the same
// code at width 1.
//
// Every intermediate the tape creates — op outputs, gradient accumulators and
// backward-pass temporaries — is drawn from the size-bucketed buffer pool in
// internal/tensor through a tape-scoped free list. A gradient is owned by
// exactly one node at a time: an op's backward step builds its input's
// gradient in a temporary, or reuses its own gradient in place, and hands it
// over — it becomes the input's accumulator if the input has none yet, else it
// is added in and goes back on the list (give, pass). An op node's accumulator
// goes back on the list as soon as its backward step has run; Reset puts the
// rest back and keeps the list for the next pass on the same tape (the shared
// pool sits on sync.Pool, which every collection empties — a tape that cycles
// through megabyte buffers keeps them itself); Release hands everything to the
// shared pool. Caller-provided matrices (Const/Var/Param inputs) are never
// pooled or released. Nodes themselves live in chunks the tape keeps across
// Reset, so a warm tape records a pass without allocating a node.
//
// An inference tape (NewInferenceTape) is the same tape for passes that take
// no gradient, such as a policy's decisions: nothing on it requires a
// gradient, so no op records a backward step, and its op outputs are kept per
// position rather than on the free list.
//
// Gradient correctness for every op is property-tested against central
// finite differences in autograd_test.go.
package autograd

import (
	"fmt"
	"math"

	"readys/internal/tensor"
)

// Node is a value in the computation graph together with its accumulated
// gradient. Nodes are created through Tape methods and must not be mutated
// after creation.
type Node struct {
	Value *tensor.Matrix
	// Grad has the same shape as Value. It is nil until the first
	// gradient is accumulated into the node.
	Grad *tensor.Matrix

	requiresGrad bool
	// extGrad marks a Param leaf: Grad is the caller's accumulator, never
	// allocated, pooled or dropped by the tape.
	extGrad  bool
	backward func()
}

// RequiresGrad reports whether gradients flow into this node.
func (n *Node) RequiresGrad() bool { return n.requiresGrad }

// Tape records operations for a single forward pass. A Tape is not safe for
// concurrent use; create one tape per goroutine.
type Tape struct {
	// chunks hold the n recorded nodes in creation order; Reset keeps them.
	chunks [][]Node
	n      int
	// owned lists the op outputs, which Reset and Release recycle with every
	// remaining gradient accumulator — except on an inference tape, where
	// owned[i] is the i-th output's slot, kept, and slot counts the outputs.
	owned []*tensor.Matrix
	infer bool
	slot  int
	// bufs is where every buffer of the tape comes from and goes back to.
	bufs tensor.FreeList
	// idx backs the index tables ops keep for their backward step (gathered
	// rows, pooling argmaxes); Reset rewinds it.
	idx      []int
	released bool
}

// gradOf returns n's gradient accumulator, drawing a zeroed one on first use.
func (t *Tape) gradOf(n *Node) *tensor.Matrix {
	if n.Grad == nil {
		n.Grad = t.bufs.Get(n.Value.Rows, n.Value.Cols)
	}
	return n.Grad
}

// accum adds g into n.Grad and leaves g to the caller. It is a no-op for nodes
// that do not require gradients, so op backward functions can call it
// unconditionally.
func (t *Tape) accum(n *Node, g *tensor.Matrix) {
	if n.requiresGrad {
		tensor.AddInPlace(t.gradOf(n), g)
	}
}

// give hands the tape buffer g, a gradient for n, to n: it becomes n's
// accumulator when n has none yet, and is otherwise added in and freed. Moving
// instead of adding onto a zeroed accumulator can only keep a −0 that +0 + (−0)
// would have made +0, in an op node's or Var leaf's gradient: backward only
// multiplies, adds and copies gradients, every sum starts at +0, and a Param's
// accumulator starts at +0 (ZeroGrad) and is only ever added to, so a Param
// gradient carries the same bits either way.
func (t *Tape) give(n *Node, g *tensor.Matrix) {
	switch {
	case !n.requiresGrad:
		t.bufs.Put(g)
	case n.Grad == nil:
		n.Grad = g
	default:
		tensor.AddInPlace(n.Grad, g)
		t.bufs.Put(g)
	}
}

// pass gives out's gradient to n, which must have out's shape; out's backward
// step calls it last, once nothing else reads out.Grad.
func (t *Tape) pass(n, out *Node) {
	g := out.Grad
	out.Grad = nil
	t.give(n, g)
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// NewInferenceTape returns an empty tape for passes that take no gradient:
// the i-th op output of a pass reuses the i-th output's buffer of the previous
// pass, grown to the exact size plus a quarter when too small — one buffer per
// position, sized for the largest seen, not power-of-two free-list classes.
func NewInferenceTape() *Tape { return &Tape{infer: true} }

// nodeChunk is how many nodes one arena chunk holds.
const nodeChunk = 64

// Len returns the number of recorded nodes (useful in tests and for sizing
// diagnostics).
func (t *Tape) Len() int { return t.n }

// node returns the i-th recorded node.
func (t *Tape) node(i int) *Node { return &t.chunks[i/nodeChunk][i%nodeChunk] }

// push records n in the tape's arena.
func (t *Tape) push(n Node) *Node {
	if t.released {
		panic("autograd: use of a released tape")
	}
	if t.n == len(t.chunks)*nodeChunk {
		t.chunks = append(t.chunks, make([]Node, nodeChunk))
	}
	p := t.node(t.n)
	*p = n
	t.n++
	return p
}

// alloc draws a zeroed rows x cols op output and records it as tape-owned.
func (t *Tape) alloc(rows, cols int) *tensor.Matrix { return t.output(rows, cols, true) }

// overwrite draws an op output the op's kernel writes in full, so an
// inference tape need not zero it first.
func (t *Tape) overwrite(rows, cols int) *tensor.Matrix { return t.output(rows, cols, false) }

func (t *Tape) output(rows, cols int, zero bool) *tensor.Matrix {
	if !t.infer {
		m := t.bufs.Get(rows, cols)
		t.owned = append(t.owned, m)
		return m
	}
	if t.slot == len(t.owned) {
		t.owned = append(t.owned, new(tensor.Matrix))
	}
	m, n := t.owned[t.slot], rows*cols
	t.slot++
	if cap(m.Data) < n {
		m.Data = make([]float64, n, n+n/4)
	} else if m.Data = m.Data[:n]; zero {
		clear(m.Data)
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// ints cuts an n-entry index table from the tape's kept buffer. When the
// buffer is full a larger one replaces it; tables cut earlier keep the old
// array alive until the Reset that voids them.
func (t *Tape) ints(n int) []int {
	lo := len(t.idx)
	if lo+n > cap(t.idx) {
		t.idx, lo = make([]int, 0, max(2*cap(t.idx), n)), 0
	}
	t.idx = t.idx[:lo+n]
	return t.idx[lo : lo+n : lo+n]
}

// Reset empties the tape for another forward pass and keeps its buffers: every
// op output and remaining gradient accumulator goes on the tape's free list,
// from which the next pass draws. Nodes of the previous pass must not be used
// afterwards: values read from them (sampled actions, scalar losses) must be
// extracted first. Gradients accumulated into Param leaves are the caller's
// and stay.
func (t *Tape) Reset() {
	if t.released {
		panic("autograd: use of a released tape")
	}
	used := t.n
	t.n, t.slot, t.idx = 0, 0, t.idx[:0]
	if t.infer {
		return // its nodes hold no gradient or closure; the next pass overwrites them
	}
	for i := range used {
		n := t.node(i)
		if n.Grad != nil && !n.extGrad {
			t.bufs.Put(n.Grad)
		}
		*n = Node{}
	}
	for i, m := range t.owned {
		t.bufs.Put(m)
		t.owned[i] = nil
	}
	t.owned = t.owned[:0]
}

// Release is the final Reset: the tape's buffers go to the shared pool and
// the tape and its nodes must not be used afterwards. Release is idempotent;
// a tape that is never released is simply collected by the GC.
func (t *Tape) Release() {
	if t.released {
		return
	}
	t.Reset()
	t.bufs.Drain()
	t.chunks, t.owned, t.idx = nil, nil, nil
	t.released = true
}

// Released reports whether Release has been called.
func (t *Tape) Released() bool { return t.released }

// Const records a node through which no gradient flows (inputs, masks).
// The matrix is used as-is and must not be mutated afterwards.
func (t *Tape) Const(m *tensor.Matrix) *Node {
	return t.push(Node{Value: m})
}

// Var records a differentiable leaf (a parameter or an input whose gradient
// is wanted). After Backward, the accumulated gradient is in Node.Grad.
func (t *Tape) Var(m *tensor.Matrix) *Node {
	return t.push(Node{Value: m, requiresGrad: true})
}

// Param records a differentiable leaf whose gradient accumulator is the
// caller's: Backward adds into grad (same shape as value) directly, so
// gradients of successive passes — and of successive tapes binding the same
// parameter — sum in the order the passes ran, with no copy-out step.
func (t *Tape) Param(value, grad *tensor.Matrix) *Node {
	if !value.SameShape(grad) {
		panic(fmt.Sprintf("autograd: Param gradient is %dx%d for a %dx%d value", grad.Rows, grad.Cols, value.Rows, value.Cols))
	}
	return t.push(Node{Value: value, Grad: grad, requiresGrad: true, extGrad: true})
}

// Backward runs reverse-mode differentiation from root, which must be a 1x1
// scalar node; its gradient is seeded with 1. It may be called once per
// forward pass. Only leaves keep their gradient: an op node's accumulator is
// recycled as soon as its backward step has consumed it.
func (t *Tape) Backward(root *Node) {
	if root.Value.Rows != 1 || root.Value.Cols != 1 {
		panic(fmt.Sprintf("autograd: Backward root must be 1x1, got %dx%d", root.Value.Rows, root.Value.Cols))
	}
	if !root.requiresGrad {
		return // nothing on the tape influences the root
	}
	t.gradOf(root).Data[0] += 1
	for i := t.n - 1; i >= 0; i-- {
		n := t.node(i)
		if n.backward != nil && n.Grad != nil {
			n.backward()
			t.bufs.Put(n.Grad) // a no-op when pass handed it on
			n.Grad = nil
		}
	}
}

func anyGrad(ns ...*Node) bool {
	for _, n := range ns {
		if n.requiresGrad {
			return true
		}
	}
	return false
}

// MatMul records c = a*b.
func (t *Tape) MatMul(a, b *Node) *Node { return t.MatMulSeg(a, b, nil) }

// MatMulSeg records c = a*b for a row-stacked a: segs is the segment table of
// a's rows. The product and a's gradient are row-local and ignore it; b's
// gradient reduces over rows and goes range by range (see matMulGrads).
func (t *Tape) MatMulSeg(a, b *Node, segs []int) *Node {
	val := t.overwrite(a.Value.Rows, b.Value.Cols)
	tensor.MatMulInto(a.Value, b.Value, val)
	out := t.push(Node{Value: val, requiresGrad: anyGrad(a, b)})
	if out.requiresGrad {
		out.backward = func() { t.matMulGrads(a, b, out.Grad, segs) }
	}
	return out
}

// LinearReLUSeg records the dense layer c = ReLU(a*w + bias) as one node, with
// the bits of MatMulSeg, AddRowVectorSeg and ReLU (segs as there): the forward
// is tensor.LinearReLUInto, and the backward masks ∂c in place where c is not
// > 0 — exactly where the pre-activation is not — then takes bias's, a's and
// w's gradients from it as those three nodes would.
func (t *Tape) LinearReLUSeg(a, w, bias *Node, segs []int) *Node {
	val := t.overwrite(a.Value.Rows, w.Value.Cols)
	tensor.LinearReLUInto(a.Value, w.Value, bias.Value, val)
	out := t.push(Node{Value: val, requiresGrad: anyGrad(a, w, bias)})
	if out.requiresGrad {
		out.backward = func() {
			// c is +0 or positive, so its bits are 0 exactly where ∂c is
			// masked; an AND keeps the unmasked bits, with no branch to
			// mispredict on a half-zero activation.
			dc := out.Grad.Data[:len(val.Data)]
			for i, v := range val.Data {
				keep := uint64(-int64(math.Float64bits(v)) >> 63)
				dc[i] = math.Float64frombits(math.Float64bits(dc[i]) & keep)
			}
			t.addColSums(bias, out.Grad, segs)
			t.matMulGrads(a, w, out.Grad, segs)
		}
	}
	return out
}

// matMulGrads takes the gradients of c = a*b from ∂c = dc. a's, ∂c·bᵀ, runs on
// the row kernel against a transposed copy of b: each entry is the dot product
// summed over ascending k from +0, as a dot loop would sum it. b's, aᵀ·∂c,
// reduces over rows and is accumulated one range of segs at a time, in order,
// each range's product formed from zero — the bits that one tape per range
// would have summed into b.
func (t *Tape) matMulGrads(a, b *Node, dc *tensor.Matrix, segs []int) {
	if a.requiresGrad {
		bt := t.bufs.Get(b.Value.Cols, b.Value.Rows)
		tensor.TransposeInto(b.Value, bt)
		g := t.bufs.Get(a.Value.Rows, a.Value.Cols)
		tensor.MatMulInto(dc, bt, g)
		t.bufs.Put(bt)
		t.give(a, g)
	}
	if b.requiresGrad {
		g := t.bufs.Get(b.Value.Rows, b.Value.Cols)
		tensor.MatMulTransASegAcc(a.Value, dc, segs, g, t.gradOf(b))
		t.bufs.Put(g)
	}
}

// SpMM records c = a*b for a constant sparse operand a (the GCN propagation
// operator): the graph topology carries no gradient, so only the dense
// operand b receives one — ∂c/∂b applied to an upstream gradient G is aᵀG.
// Forward cost is O(nnz(a)·b.Cols) instead of the dense O(n²·b.Cols).
func (t *Tape) SpMM(a *tensor.Sparse, b *Node) *Node {
	val := t.overwrite(a.Rows, b.Value.Cols)
	tensor.SpMMInto(a, b.Value, val)
	out := t.push(Node{Value: val, requiresGrad: b.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			g := t.bufs.Get(b.Value.Rows, b.Value.Cols)
			tensor.SpMMTransAInto(a, out.Grad, g)
			t.give(b, g)
		}
	}
	return out
}

// Add records c = a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.AddInto(a.Value, b.Value, val)
	out := t.push(Node{Value: val, requiresGrad: anyGrad(a, b)})
	if out.requiresGrad {
		out.backward = func() {
			t.accum(a, out.Grad)
			t.pass(b, out)
		}
	}
	return out
}

// Sub records c = a - b.
func (t *Tape) Sub(a, b *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.SubInto(a.Value, b.Value, val)
	out := t.push(Node{Value: val, requiresGrad: anyGrad(a, b)})
	if out.requiresGrad {
		out.backward = func() {
			t.accum(a, out.Grad)
			tensor.ScaleInto(out.Grad, -1, out.Grad)
			t.pass(b, out)
		}
	}
	return out
}

// Mul records the elementwise product c = a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.MulInto(a.Value, b.Value, val)
	out := t.push(Node{Value: val, requiresGrad: anyGrad(a, b)})
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				g := t.bufs.Get(a.Value.Rows, a.Value.Cols)
				tensor.MulInto(out.Grad, b.Value, g)
				t.give(a, g)
			}
			tensor.MulInto(out.Grad, a.Value, out.Grad)
			t.pass(b, out)
		}
	}
	return out
}

// Scale records c = s*a for a constant s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.ScaleInto(a.Value, s, val)
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			tensor.ScaleInto(out.Grad, s, out.Grad)
			t.pass(a, out)
		}
	}
	return out
}

// AddConst records c = a + s for a constant s.
func (t *Tape) AddConst(a *Node, s float64) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.ApplyInto(a.Value, func(v float64) float64 { return v + s }, val)
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() { t.pass(a, out) }
	}
	return out
}

// AddRowVector records c[i,:] = a[i,:] + v where v is 1 x Cols (bias broadcast).
func (t *Tape) AddRowVector(a, v *Node) *Node { return t.AddRowVectorSeg(a, v, nil) }

// AddRowVectorSeg is AddRowVector for a row-stacked a with segment table segs:
// v's gradient, the column sums of ∂c, is accumulated range by range like
// MatMulSeg's right operand.
func (t *Tape) AddRowVectorSeg(a, v *Node, segs []int) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.AddRowVectorInto(a.Value, v.Value, val)
	out := t.push(Node{Value: val, requiresGrad: anyGrad(a, v)})
	if out.requiresGrad {
		out.backward = func() {
			t.addColSums(v, out.Grad, segs)
			t.pass(a, out)
		}
	}
	return out
}

// addColSums gives v, a row vector broadcast over dc's rows, its gradient: the
// column sums of dc, one range of segs at a time, each summed from +0 in row
// order.
func (t *Tape) addColSums(v *Node, dc *tensor.Matrix, segs []int) {
	if !v.requiresGrad {
		return
	}
	for s := 0; s < tensor.SegmentCount(segs); s++ {
		g := t.bufs.Get(1, dc.Cols)
		lo, hi := tensor.SegmentBounds(segs, s, dc.Rows)
		for i := lo; i < hi; i++ {
			for j, x := range dc.Row(i) {
				g.Data[j] += x
			}
		}
		t.give(v, g)
	}
}

// ReLU records c = max(a, 0) elementwise. The network's layers use
// LinearReLUSeg; this is the reference that node is tested against.
func (t *Tape) ReLU(a *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.ApplyInto(a.Value, func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	}, val)
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			for i, v := range a.Value.Data {
				if !(v > 0) {
					out.Grad.Data[i] = 0
				}
			}
			t.pass(a, out)
		}
	}
	return out
}

// LeakyReLU records c = a if a>0 else slope*a.
func (t *Tape) LeakyReLU(a *Node, slope float64) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.ApplyInto(a.Value, func(v float64) float64 {
		if v > 0 {
			return v
		}
		return slope * v
	}, val)
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			for i, v := range a.Value.Data {
				if !(v > 0) {
					out.Grad.Data[i] *= slope
				}
			}
			t.pass(a, out)
		}
	}
	return out
}

// Tanh records c = tanh(a) elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.ApplyInto(a.Value, math.Tanh, val)
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			for i, y := range val.Data {
				out.Grad.Data[i] *= 1 - float64(y*y)
			}
			t.pass(a, out)
		}
	}
	return out
}

// Exp records c = exp(a) elementwise.
func (t *Tape) Exp(a *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.ApplyInto(a.Value, math.Exp, val)
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			tensor.MulInto(out.Grad, val, out.Grad)
			t.pass(a, out)
		}
	}
	return out
}

// Square records c = a² elementwise.
func (t *Tape) Square(a *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.MulInto(a.Value, a.Value, val)
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			for i, v := range a.Value.Data {
				out.Grad.Data[i] = float64(out.Grad.Data[i]*v) * 2
			}
			t.pass(a, out)
		}
	}
	return out
}

// SumAll records the 1x1 scalar sum of every entry of a.
func (t *Tape) SumAll(a *Node) *Node { return t.SegmentSum(a, nil) }

// SegmentSum records the column vector whose entry s is the sum of every
// entry of a's row range s, added in row-major order.
func (t *Tape) SegmentSum(a *Node, segs []int) *Node {
	cols := a.Value.Cols
	val := t.alloc(tensor.SegmentCount(segs), 1)
	var in tensor.Matrix
	for s := range val.Data {
		lo, hi := tensor.SegmentBounds(segs, s, a.Value.Rows)
		val.Data[s] = tensor.Sum(rowsView(&in, a.Value, lo, hi))
	}
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			g := t.bufs.Get(a.Value.Rows, cols)
			for s, v := range out.Grad.Data {
				lo, hi := tensor.SegmentBounds(segs, s, a.Value.Rows)
				for i := lo * cols; i < hi*cols; i++ {
					g.Data[i] = v
				}
			}
			t.give(a, g)
		}
	}
	return out
}

// rowsView points view at rows [lo, hi) of m.
func rowsView(view, m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	view.Rows, view.Cols, view.Data = hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols]
	return view
}

// MeanRows records the 1 x Cols vector of column means (mean pooling over the
// node set, used by the critic head).
func (t *Tape) MeanRows(a *Node) *Node { return t.SegmentMeanRows(a, nil) }

// SegmentMeanRows records the matrix whose row s holds the column means of
// a's row range s. An empty range pools to zeros and passes no gradient.
func (t *Tape) SegmentMeanRows(a *Node, segs []int) *Node {
	cols := a.Value.Cols
	val := t.alloc(tensor.SegmentCount(segs), cols)
	var in, res tensor.Matrix
	for s := 0; s < val.Rows; s++ {
		lo, hi := tensor.SegmentBounds(segs, s, a.Value.Rows)
		tensor.MeanRowsInto(rowsView(&in, a.Value, lo, hi), rowsView(&res, val, s, s+1))
	}
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			g := t.bufs.Get(a.Value.Rows, cols)
			for s := 0; s < out.Grad.Rows; s++ {
				lo, hi := tensor.SegmentBounds(segs, s, a.Value.Rows)
				inv := 1.0 / float64(hi-lo)
				for i := lo; i < hi; i++ {
					grow := g.Row(i)
					for j, v := range out.Grad.Row(s) {
						grow[j] = v * inv
					}
				}
			}
			t.give(a, g)
		}
	}
	return out
}

// MaxRows records the 1 x Cols vector of column maxima (max pooling over the
// node set, used for the ∅-action score). The gradient routes to the argmax
// row of each column.
func (t *Tape) MaxRows(a *Node) *Node { return t.SegmentMaxRows(a, nil) }

// SegmentMaxRows records the matrix whose row s holds the column maxima of
// a's row range s; the gradient routes to the argmax row of each column, the
// first on ties. An empty range pools to zeros and passes no gradient.
func (t *Tape) SegmentMaxRows(a *Node, segs []int) *Node {
	cols := a.Value.Cols
	val := t.alloc(tensor.SegmentCount(segs), cols)
	arg := t.ints(val.Rows * cols) // MaxRowsInto writes every entry
	var in, res tensor.Matrix
	for s := 0; s < val.Rows; s++ {
		lo, hi := tensor.SegmentBounds(segs, s, a.Value.Rows)
		tensor.MaxRowsInto(rowsView(&in, a.Value, lo, hi), rowsView(&res, val, s, s+1), arg[s*cols:(s+1)*cols])
	}
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			g := t.bufs.Get(a.Value.Rows, cols)
			for s := 0; s < out.Grad.Rows; s++ {
				lo, hi := tensor.SegmentBounds(segs, s, a.Value.Rows)
				if lo == hi {
					continue
				}
				for j, v := range out.Grad.Row(s) {
					g.Data[(lo+arg[s*cols+j])*cols+j] = v
				}
			}
			t.give(a, g)
		}
	}
	return out
}

// GatherRows records the matrix whose i-th row is a's row idx[i] (selecting
// the embeddings of the ready tasks). Gradients scatter-add back, so repeated
// indices are handled correctly.
func (t *Tape) GatherRows(a *Node, idx []int) *Node {
	ids := t.ints(len(idx))
	copy(ids, idx)
	val := t.alloc(len(ids), a.Value.Cols)
	tensor.GatherRowsInto(a.Value, ids, val)
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			g := t.bufs.Get(a.Value.Rows, a.Value.Cols)
			for i, r := range ids {
				grow := g.Row(r)
				orow := out.Grad.Row(i)
				for j, v := range orow {
					grow[j] += v
				}
			}
			t.give(a, g)
		}
	}
	return out
}

// ConcatCols records [a | b].
func (t *Tape) ConcatCols(a, b *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols+b.Value.Cols)
	tensor.ConcatColsInto(a.Value, b.Value, val)
	out := t.push(Node{Value: val, requiresGrad: anyGrad(a, b)})
	if out.requiresGrad {
		ac := a.Value.Cols
		out.backward = func() {
			if a.requiresGrad {
				g := t.bufs.Get(a.Value.Rows, a.Value.Cols)
				for i := 0; i < g.Rows; i++ {
					copy(g.Row(i), out.Grad.Row(i)[:ac])
				}
				t.give(a, g)
			}
			if b.requiresGrad {
				g := t.bufs.Get(b.Value.Rows, b.Value.Cols)
				for i := 0; i < g.Rows; i++ {
					copy(g.Row(i), out.Grad.Row(i)[ac:])
				}
				t.give(b, g)
			}
		}
	}
	return out
}

// ConcatRows records the vertical concatenation of nodes (all with equal
// column counts); used to stack per-task scores with the ∅-action score.
func (t *Tape) ConcatRows(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		panic("autograd: ConcatRows needs at least one node")
	}
	cols := nodes[0].Value.Cols
	rows := 0
	req := false
	for _, n := range nodes {
		if n.Value.Rows > 0 {
			if cols == 0 || nodes[0].Value.Rows == 0 {
				cols = n.Value.Cols
			}
			if n.Value.Cols != cols {
				panic(fmt.Sprintf("autograd: ConcatRows col mismatch %d vs %d", n.Value.Cols, cols))
			}
		}
		rows += n.Value.Rows
		req = req || n.requiresGrad
	}
	val := t.alloc(rows, cols)
	offset := 0
	for _, n := range nodes {
		copy(val.Data[offset*cols:], n.Value.Data)
		offset += n.Value.Rows
	}
	out := t.push(Node{Value: val, requiresGrad: req})
	if out.requiresGrad {
		parts := append([]*Node(nil), nodes...)
		out.backward = func() {
			offset := 0
			for _, p := range parts {
				rows := p.Value.Rows
				if p.requiresGrad {
					g := t.bufs.Get(rows, p.Value.Cols)
					copy(g.Data, out.Grad.Data[offset*out.Grad.Cols:(offset+rows)*out.Grad.Cols])
					t.give(p, g)
				}
				offset += rows
			}
		}
	}
	return out
}

// LogSoftmaxCol records the log-softmax of an n x 1 column vector in a
// numerically stable way (max-shifted).
func (t *Tape) LogSoftmaxCol(a *Node) *Node { return t.SegmentLogSoftmax(a, nil) }

// SegmentLogSoftmax records, for an n x 1 column of stacked logits, the
// log-softmax of each row range taken on its own (max-shifted).
func (t *Tape) SegmentLogSoftmax(a *Node, segs []int) *Node {
	if a.Value.Cols != 1 {
		panic(fmt.Sprintf("autograd: SegmentLogSoftmax wants n x 1, got %dx%d", a.Value.Rows, a.Value.Cols))
	}
	n := a.Value.Rows
	val := t.alloc(n, 1)
	for s := 0; s < tensor.SegmentCount(segs); s++ {
		lo, hi := tensor.SegmentBounds(segs, s, n)
		logits := a.Value.Data[lo:hi]
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
			val.Data[lo+i] = v - logZ
		}
	}
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			// d logsoftmax: dx_i = g_i - softmax_i * Σ g, the sum over i's range.
			for s := 0; s < tensor.SegmentCount(segs); s++ {
				lo, hi := tensor.SegmentBounds(segs, s, n)
				var gsum float64
				for _, v := range out.Grad.Data[lo:hi] {
					gsum += v
				}
				for i := lo; i < hi; i++ {
					out.Grad.Data[i] -= float64(math.Exp(val.Data[i]) * gsum)
				}
			}
			t.pass(a, out)
		}
	}
	return out
}

// Pick records the 1x1 scalar a[i,j].
func (t *Tape) Pick(a *Node, i, j int) *Node {
	val := t.alloc(1, 1)
	val.Data[0] = a.Value.At(i, j)
	out := t.push(Node{Value: val, requiresGrad: a.requiresGrad})
	if out.requiresGrad {
		out.backward = func() {
			g := t.bufs.Get(a.Value.Rows, a.Value.Cols)
			g.Set(i, j, out.Grad.Data[0])
			t.give(a, g)
		}
	}
	return out
}

// Neg records c = -a.
func (t *Tape) Neg(a *Node) *Node { return t.Scale(a, -1) }

// Scalar returns the single value of a 1x1 node.
func Scalar(n *Node) float64 {
	if n.Value.Rows != 1 || n.Value.Cols != 1 {
		panic(fmt.Sprintf("autograd: Scalar on %dx%d node", n.Value.Rows, n.Value.Cols))
	}
	return n.Value.Data[0]
}
