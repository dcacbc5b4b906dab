// Package autograd implements tape-based reverse-mode automatic
// differentiation over dense matrices.
//
// A Tape records every operation in creation order; Backward seeds the
// gradient of a scalar (1x1) output and replays the tape in reverse,
// accumulating gradients into every node that requires them. The op set is
// exactly what the READYS policy/value network of the paper (Fig. 2) and the
// A2C loss need: matrix products (dense and sparse-propagation SpMM),
// bias broadcasts, ReLU/Exp nonlinearities, node-set pooling (mean/max
// over rows), row gathering for ready-task selection, concatenation,
// log-softmax, and scalar arithmetic (scalars are represented as 1x1
// matrices).
//
// Batch width. One tape can evaluate a stack of d independent samples at
// once: their rows are stacked into one matrix and a segment table (see
// tensor.SegmentBounds) says which rows belong to which sample. Row-local ops
// need nothing more; the ops that reduce over a sample's rows (pooling,
// log-softmax, sums) and the ops that reduce over rows into a parameter
// gradient (MatMulSeg's right operand, AddRowVectorSeg's vector) take the
// table and work range by range, so every sample's values and every parameter's
// gradient carry the bits d separate tapes would have produced, summed in
// sample order. A nil table is one sample: the unstacked case is the same
// code at width 1.
//
// Every intermediate the tape creates — op outputs, gradient accumulators and
// backward-pass temporaries — is drawn from the tape's own size-bucketed free
// list (tensor.FreeList); an op output its kernel writes in full (MatMulSeg,
// LinearReLUSeg, SpMM) is drawn without zeroing. A
// gradient is owned by exactly one node at a time: an op's backward step
// builds its input's gradient in a temporary, or reuses its own gradient in
// place, and hands it over — it becomes the input's accumulator if the input
// has none yet, else it is added in and goes back on the list (give, pass). An
// op node's accumulator goes back on the list as soon as its backward step has
// run. An op output goes back on the list when the caller drops it (Drop) —
// once the forward has read it, if no backward step reads its values — and
// otherwise at Reset, which puts back everything left and keeps the list for
// the next pass on the same tape; Release drops the list. Caller-provided
// matrices (Const/Var/Param inputs) are never recycled or released.
//
// The tape keeps what backward reads and no more. Most backward steps read
// their inputs' shapes only; the few that read values pin them against Drop.
// A dense layer (LinearReLUSeg) keeps its ReLU mask, one bit per output entry
// written by the row kernel, in place of its output's values, so a network
// can drop each activation once the next layer has read it.
//
// A backward step is a record, not a closure: an op code and the operands the
// step reads (input nodes, segment table, index table, ReLU mask, scalar,
// sparse operand), kept in a slice the tape owns, which Backward dispatches
// with one switch. Nodes live in chunks, and steps, index tables, ReLU masks,
// ConcatRows' input lists and dropped nodes' shapes in buffers, that the tape
// keeps across Reset, so a warm tape records and differentiates a pass without
// allocating.
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
	extGrad bool
	// leaf marks a Const/Var/Param node, whose Value is the caller's; read
	// marks a node whose values a recorded backward step reads. Drop refuses
	// both, and marks what it drops dropped.
	leaf, read, dropped bool
	// step is 1 + the index of the node's backward step in its tape's
	// steps, or 0 when it has none.
	step int
}

// RequiresGrad reports whether gradients flow into this node.
func (n *Node) RequiresGrad() bool { return n.requiresGrad }

// opCode names the op a backward step differentiates.
type opCode uint8

const (
	opMatMul opCode = iota
	opLinearReLU
	opSpMM
	opAdd
	opSub
	opMul
	opScale
	opAddConst
	opAddRowVector
	opReLU
	opExp
	opSquare
	opSegmentSum
	opSegmentMeanRows
	opSegmentMaxRows
	opGatherRows
	opConcatCols
	opConcatRows
	opLogSoftmax
	opPick
)

// step records an op's backward step: what Backward needs, besides the output
// node, to hand the op's inputs their gradients.
type step struct {
	op      opCode
	a, b, c *Node          // node operands, in argument order
	segs    []int          // segment table of a's rows
	idx     []int          // GatherRows' indices, SegmentMaxRows' argmaxes
	mask    []uint32       // LinearReLUSeg's ReLU mask (see tensor.ApplyReLUMask)
	parts   []*Node        // ConcatRows' inputs
	s       float64        // Scale's factor
	at      int            // Pick's entry, row-major
	sp      *tensor.Sparse // SpMM's constant operand
}

// Tape records operations for a single forward pass. A Tape is not safe for
// concurrent use; create one tape per goroutine.
type Tape struct {
	// chunks hold the n recorded nodes in creation order; Reset keeps them.
	chunks [][]Node
	n      int
	// steps holds the backward steps of the recorded nodes; Reset keeps its
	// array.
	steps []step
	// owned lists the op outputs, which Reset and Release recycle with every
	// remaining gradient accumulator (a dropped output's entry is nil, its
	// buffer recycled already) — except on an inference tape, where owned[i]
	// is the i-th output's slot, kept, and slot counts the outputs.
	owned []*tensor.Matrix
	infer bool
	slot  int
	// bufs is where every buffer of the tape comes from and goes back to.
	bufs tensor.FreeList
	// idx backs the index tables ops keep for their backward step (gathered
	// rows, pooling argmaxes), masks the dense layers' ReLU masks, parts
	// ConcatRows' input lists and shapes the Values of dropped nodes; Reset
	// rewinds them all.
	idx      []int
	masks    []uint32
	parts    []*Node
	shapes   []tensor.Matrix
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
// that do not require gradients, so backward steps can call it
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

// result records an op's output val, which requires a gradient when req, and
// when it does, the op's backward step st, whose operands' values the step
// reads are then pinned against Drop. It panics if the op read a dropped node.
func (t *Tape) result(val *tensor.Matrix, req bool, st step) *Node {
	for _, in := range [...]*Node{st.a, st.b, st.c} {
		mustLive(in)
	}
	out := t.push(Node{Value: val, requiresGrad: req})
	if req {
		t.steps = append(t.steps, st)
		out.step = len(t.steps)
		switch st.op {
		case opMatMul, opLinearReLU, opMul:
			st.a.read, st.b.read = true, true
		case opReLU, opSquare:
			st.a.read = true
		case opExp, opLogSoftmax:
			out.read = true
		}
	}
	return out
}

// mustLive panics when an op has read n, a dropped node: its Value is a shape
// with no data, which a kernel that ranges over it reads as empty.
func mustLive(n *Node) {
	if n != nil && n.dropped {
		panic(fmt.Sprintf("autograd: an op read a dropped %dx%d node", n.Value.Rows, n.Value.Cols))
	}
}

// alloc draws a zeroed rows x cols op output and records it as tape-owned.
func (t *Tape) alloc(rows, cols int) *tensor.Matrix { return t.output(rows, cols, true) }

// overwrite draws an op output the op's kernel writes in full, so it need not
// be zeroed first.
func (t *Tape) overwrite(rows, cols int) *tensor.Matrix { return t.output(rows, cols, false) }

func (t *Tape) output(rows, cols int, zero bool) *tensor.Matrix {
	if !t.infer {
		var m *tensor.Matrix
		if zero {
			m = t.bufs.Get(rows, cols)
		} else {
			m = t.bufs.GetDirty(rows, cols)
		}
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

// carve cuts an n-entry table, for the caller to fill, from the tape's kept
// buffer *buf. When the buffer is full a larger one replaces it; tables cut
// earlier keep the old array alive until the Reset that voids them.
func carve[T any](buf *[]T, n int) []T {
	lo := len(*buf)
	if lo+n > cap(*buf) {
		*buf, lo = make([]T, 0, max(2*cap(*buf), n)), 0
	}
	*buf = (*buf)[:lo+n]
	return (*buf)[lo : lo+n : lo+n]
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
	t.n, t.slot, t.idx, t.masks, t.shapes = 0, 0, t.idx[:0], t.masks[:0], t.shapes[:0]
	if t.infer {
		return // its nodes hold no gradient or step; the next pass overwrites them
	}
	for i := range used {
		n := t.node(i)
		if n.Grad != nil && !n.extGrad {
			t.bufs.Put(n.Grad)
		}
		*n = Node{}
	}
	clear(t.steps)
	clear(t.parts)
	t.steps, t.parts = t.steps[:0], t.parts[:0]
	for i, m := range t.owned {
		t.bufs.Put(m)
		t.owned[i] = nil
	}
	t.owned = t.owned[:0]
}

// Release is the final Reset: the tape drops its buffers and free list, and
// the tape and its nodes must not be used afterwards. Release is idempotent;
// a tape that is never released is simply collected by the GC.
func (t *Tape) Release() {
	if t.released {
		return
	}
	t.Reset()
	t.bufs = tensor.FreeList{}
	t.chunks, t.steps, t.owned, t.idx, t.masks, t.parts, t.shapes = nil, nil, nil, nil, nil, nil, nil
	t.released = true
}

// Drop declares that nothing reads n's values any more: no op recorded after
// it takes n as an input, and no backward step reads them. n's buffer goes
// back on the tape's free list at once, for the next op output or gradient of
// its size class, and n keeps only its shape — all that the backward steps of
// the ops that took it as an input (SpMM, GatherRows, segment pooling, Add,
// ...) and its own, if it is a LinearReLUSeg output, read. The shape's header
// comes from a table the tape keeps, so a warm Drop allocates nothing.
// Reading a dropped node's data, directly or through an op, panics.
//
// Drop is a no-op on an inference tape, whose outputs are positional slots,
// and on a node already dropped. It panics on a leaf, whose value is the
// caller's, and on a node whose values a recorded backward step reads: its
// own (Exp, SegmentLogSoftmax) or a consumer's (MatMulSeg, LinearReLUSeg's
// input, Mul, ReLU, Square).
func (t *Tape) Drop(n *Node) {
	if t.infer || n.dropped {
		return
	}
	switch {
	case n.leaf:
		panic("autograd: Drop of a leaf: its value is the caller's")
	case n.read:
		panic(fmt.Sprintf("autograd: Drop of a %dx%d node whose values a backward step reads", n.Value.Rows, n.Value.Cols))
	}
	for i := len(t.owned) - 1; i >= 0; i-- {
		if t.owned[i] != n.Value {
			continue
		}
		t.owned[i] = nil
		shape := &carve(&t.shapes, 1)[0]
		shape.Rows, shape.Cols, shape.Data = n.Value.Rows, n.Value.Cols, nil
		t.bufs.Put(n.Value)
		n.Value, n.dropped = shape, true
		return
	}
	panic("autograd: Drop of a node this tape did not record")
}

// Const records a node through which no gradient flows (inputs, masks).
// The matrix is used as-is and must not be mutated afterwards.
func (t *Tape) Const(m *tensor.Matrix) *Node {
	return t.push(Node{Value: m, leaf: true})
}

// Var records a differentiable leaf (a parameter or an input whose gradient
// is wanted). After Backward, the accumulated gradient is in Node.Grad.
func (t *Tape) Var(m *tensor.Matrix) *Node {
	return t.push(Node{Value: m, requiresGrad: true, leaf: true})
}

// Param records a differentiable leaf whose gradient accumulator is the
// caller's: Backward adds into grad (same shape as value) directly, so
// gradients of successive passes — and of successive tapes binding the same
// parameter — sum in the order the passes ran, with no copy-out step.
func (t *Tape) Param(value, grad *tensor.Matrix) *Node {
	if !value.SameShape(grad) {
		panic(fmt.Sprintf("autograd: Param gradient is %dx%d for a %dx%d value", grad.Rows, grad.Cols, value.Rows, value.Cols))
	}
	return t.push(Node{Value: value, Grad: grad, requiresGrad: true, extGrad: true, leaf: true})
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
		if n.step != 0 && n.Grad != nil {
			t.backward(n, &t.steps[n.step-1])
			t.bufs.Put(n.Grad) // a no-op when pass handed it on
			n.Grad = nil
		}
	}
}

// backward runs out's backward step st: from ∂out (out.Grad) it gives each
// input of the op its gradient.
func (t *Tape) backward(out *Node, st *step) {
	a, b, dc := st.a, st.b, out.Grad
	switch st.op {
	case opMatMul: // a*b over segs
		t.matMulGrads(a, b, dc, st.segs)
	case opLinearReLU: // ReLU(a*b + c) over segs
		// The mask's bits are set exactly where out > 0, where ∂out passes.
		tensor.ApplyReLUMask(dc, st.mask)
		t.addColSums(st.c, dc, st.segs)
		t.matMulGrads(a, b, dc, st.segs)
	case opSpMM: // sp*a
		g := t.bufs.Get(a.Value.Rows, a.Value.Cols)
		tensor.SpMMTransAInto(st.sp, dc, g)
		t.give(a, g)
	case opAdd: // a + b
		t.accum(a, dc)
		t.pass(b, out)
	case opSub: // a − b
		t.accum(a, dc)
		tensor.ScaleInto(dc, -1, dc)
		t.pass(b, out)
	case opMul: // a ⊙ b
		if a.requiresGrad {
			g := t.bufs.Get(a.Value.Rows, a.Value.Cols)
			tensor.MulInto(dc, b.Value, g)
			t.give(a, g)
		}
		tensor.MulInto(dc, a.Value, dc)
		t.pass(b, out)
	case opScale: // s·a
		tensor.ScaleInto(dc, st.s, dc)
		t.pass(a, out)
	case opAddConst: // a + s
		t.pass(a, out)
	case opAddRowVector: // a + b broadcast over rows, b's gradient over segs
		t.addColSums(b, dc, st.segs)
		t.pass(a, out)
	case opReLU: // max(a, 0)
		for i, v := range a.Value.Data {
			if !(v > 0) {
				dc.Data[i] = 0
			}
		}
		t.pass(a, out)
	case opExp: // exp(a)
		tensor.MulInto(dc, out.Value, dc)
		t.pass(a, out)
	case opSquare: // a²
		for i, v := range a.Value.Data {
			dc.Data[i] = float64(dc.Data[i]*v) * 2
		}
		t.pass(a, out)
	case opSegmentSum: // Σ over each range of segs
		cols := a.Value.Cols
		g := t.bufs.Get(a.Value.Rows, cols)
		for s, v := range dc.Data {
			lo, hi := tensor.SegmentBounds(st.segs, s, a.Value.Rows)
			for i := lo * cols; i < hi*cols; i++ {
				g.Data[i] = v
			}
		}
		t.give(a, g)
	case opSegmentMeanRows: // column means over each range of segs
		g := t.bufs.Get(a.Value.Rows, a.Value.Cols)
		for s := 0; s < dc.Rows; s++ {
			lo, hi := tensor.SegmentBounds(st.segs, s, a.Value.Rows)
			inv := 1.0 / float64(hi-lo)
			for i := lo; i < hi; i++ {
				grow := g.Row(i)
				for j, v := range dc.Row(s) {
					grow[j] = v * inv
				}
			}
		}
		t.give(a, g)
	case opSegmentMaxRows: // column maxima over each range of segs, argmaxes in idx
		cols := a.Value.Cols
		g := t.bufs.Get(a.Value.Rows, cols)
		for s := 0; s < dc.Rows; s++ {
			lo, hi := tensor.SegmentBounds(st.segs, s, a.Value.Rows)
			if lo == hi {
				continue
			}
			for j, v := range dc.Row(s) {
				g.Data[(lo+st.idx[s*cols+j])*cols+j] = v
			}
		}
		t.give(a, g)
	case opGatherRows: // a's rows idx
		g := t.bufs.Get(a.Value.Rows, a.Value.Cols)
		for i, r := range st.idx {
			grow := g.Row(r)
			for j, v := range dc.Row(i) {
				grow[j] += v
			}
		}
		t.give(a, g)
	case opConcatCols: // [a | b]
		ac := a.Value.Cols
		if a.requiresGrad {
			g := t.bufs.Get(a.Value.Rows, ac)
			for i := 0; i < g.Rows; i++ {
				copy(g.Row(i), dc.Row(i)[:ac])
			}
			t.give(a, g)
		}
		if b.requiresGrad {
			g := t.bufs.Get(b.Value.Rows, b.Value.Cols)
			for i := 0; i < g.Rows; i++ {
				copy(g.Row(i), dc.Row(i)[ac:])
			}
			t.give(b, g)
		}
	case opConcatRows: // parts stacked
		offset := 0
		for _, p := range st.parts {
			rows := p.Value.Rows
			if p.requiresGrad {
				g := t.bufs.Get(rows, p.Value.Cols)
				copy(g.Data, dc.Data[offset*dc.Cols:(offset+rows)*dc.Cols])
				t.give(p, g)
			}
			offset += rows
		}
	case opLogSoftmax: // log-softmax of each range of segs
		// d logsoftmax: dx_i = g_i - softmax_i * Σ g, the sum over i's range.
		val, n := out.Value.Data, a.Value.Rows
		for s := 0; s < tensor.SegmentCount(st.segs); s++ {
			lo, hi := tensor.SegmentBounds(st.segs, s, n)
			var gsum float64
			for _, v := range dc.Data[lo:hi] {
				gsum += v
			}
			for i := lo; i < hi; i++ {
				dc.Data[i] -= float64(math.Exp(val[i]) * gsum)
			}
		}
		t.pass(a, out)
	case opPick: // a's entry at (row-major)
		g := t.bufs.Get(a.Value.Rows, a.Value.Cols)
		g.Data[st.at] = dc.Data[0]
		t.give(a, g)
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

// MatMulSeg records c = a*b for a row-stacked a: segs is the segment table of
// a's rows. The product and a's gradient are row-local and ignore it; b's
// gradient reduces over rows and goes range by range (see matMulGrads).
func (t *Tape) MatMulSeg(a, b *Node, segs []int) *Node {
	val := t.overwrite(a.Value.Rows, b.Value.Cols)
	tensor.MatMulInto(a.Value, b.Value, val)
	return t.result(val, anyGrad(a, b), step{op: opMatMul, a: a, b: b, segs: segs})
}

// LinearReLUSeg records the dense layer c = ReLU(a*w + bias) as one node, with
// the bits of MatMulSeg, AddRowVectorSeg and ReLU (segs as there): the forward
// is tensor.LinearReLUInto, which also writes, when c takes a gradient, c's
// ReLU mask into the step; the backward masks ∂c in place where the mask's bit
// is clear — where c is not > 0, exactly where the pre-activation is not —
// then takes bias's, a's and w's gradients from it as those three nodes would.
// It never reads c's values, so c can be dropped once the forward has read
// it.
func (t *Tape) LinearReLUSeg(a, w, bias *Node, segs []int) *Node {
	rows, cols := a.Value.Rows, w.Value.Cols
	val := t.overwrite(rows, cols)
	req := anyGrad(a, w, bias)
	var mask []uint32
	if req {
		mask = carve(&t.masks, tensor.ReLUMaskLen(rows, cols))
	}
	tensor.LinearReLUInto(a.Value, w.Value, bias.Value, val, mask)
	return t.result(val, req, step{op: opLinearReLU, a: a, b: w, c: bias, segs: segs, mask: mask})
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
		tensor.MatMulTransASegAcc(a.Value, dc, segs, t.gradOf(b))
	}
}

// SpMM records c = a*b for a constant sparse operand a (the GCN propagation
// operator): the graph topology carries no gradient, so only the dense
// operand b receives one — ∂c/∂b applied to an upstream gradient G is aᵀG.
// Forward cost is O(nnz(a)·b.Cols) instead of the dense O(n²·b.Cols).
func (t *Tape) SpMM(a *tensor.Sparse, b *Node) *Node {
	val := t.overwrite(a.Rows, b.Value.Cols)
	tensor.SpMMInto(a, b.Value, val)
	return t.result(val, b.requiresGrad, step{op: opSpMM, a: b, sp: a})
}

// Add records c = a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.AddInto(a.Value, b.Value, val)
	return t.result(val, anyGrad(a, b), step{op: opAdd, a: a, b: b})
}

// Sub records c = a - b.
func (t *Tape) Sub(a, b *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.SubInto(a.Value, b.Value, val)
	return t.result(val, anyGrad(a, b), step{op: opSub, a: a, b: b})
}

// Mul records the elementwise product c = a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.MulInto(a.Value, b.Value, val)
	return t.result(val, anyGrad(a, b), step{op: opMul, a: a, b: b})
}

// Scale records c = s*a for a constant s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.ScaleInto(a.Value, s, val)
	return t.result(val, a.requiresGrad, step{op: opScale, a: a, s: s})
}

// AddConst records c = a + s for a constant s.
func (t *Tape) AddConst(a *Node, s float64) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.ApplyInto(a.Value, func(v float64) float64 { return v + s }, val)
	return t.result(val, a.requiresGrad, step{op: opAddConst, a: a})
}

// AddRowVectorSeg records c[i,:] = a[i,:] + v where v is 1 x Cols (bias
// broadcast), for a row-stacked a with segment table segs:
// v's gradient, the column sums of ∂c, is accumulated range by range like
// MatMulSeg's right operand.
func (t *Tape) AddRowVectorSeg(a, v *Node, segs []int) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.AddRowVectorInto(a.Value, v.Value, val)
	return t.result(val, anyGrad(a, v), step{op: opAddRowVector, a: a, b: v, segs: segs})
}

// addColSums gives v, a row vector broadcast over dc's rows, its gradient: the
// column sums of dc, one range of segs at a time, each summed from +0 in row
// order.
func (t *Tape) addColSums(v *Node, dc *tensor.Matrix, segs []int) {
	if v.requiresGrad {
		tensor.ColSumsSegAcc(dc, segs, t.gradOf(v))
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
	return t.result(val, a.requiresGrad, step{op: opReLU, a: a})
}

// Exp records c = exp(a) elementwise.
func (t *Tape) Exp(a *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.ApplyInto(a.Value, math.Exp, val)
	return t.result(val, a.requiresGrad, step{op: opExp, a: a})
}

// Square records c = a² elementwise.
func (t *Tape) Square(a *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.MulInto(a.Value, a.Value, val)
	return t.result(val, a.requiresGrad, step{op: opSquare, a: a})
}

// SumAll records the 1x1 scalar sum of every entry of a.
func (t *Tape) SumAll(a *Node) *Node { return t.SegmentSum(a, nil) }

// SegmentSum records the column vector whose entry s is the sum of every
// entry of a's row range s, added in row-major order.
func (t *Tape) SegmentSum(a *Node, segs []int) *Node {
	val := t.alloc(tensor.SegmentCount(segs), 1)
	var in tensor.Matrix
	for s := range val.Data {
		lo, hi := tensor.SegmentBounds(segs, s, a.Value.Rows)
		val.Data[s] = tensor.Sum(rowsView(&in, a.Value, lo, hi))
	}
	return t.result(val, a.requiresGrad, step{op: opSegmentSum, a: a, segs: segs})
}

// rowsView points view at rows [lo, hi) of m.
func rowsView(view, m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	view.Rows, view.Cols, view.Data = hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols]
	return view
}

// SegmentMeanRows records the matrix whose row s holds the column means of
// a's row range s. An empty range pools to zeros and passes no gradient.
func (t *Tape) SegmentMeanRows(a *Node, segs []int) *Node {
	val := t.alloc(tensor.SegmentCount(segs), a.Value.Cols)
	var in, res tensor.Matrix
	for s := 0; s < val.Rows; s++ {
		lo, hi := tensor.SegmentBounds(segs, s, a.Value.Rows)
		tensor.MeanRowsInto(rowsView(&in, a.Value, lo, hi), rowsView(&res, val, s, s+1))
	}
	return t.result(val, a.requiresGrad, step{op: opSegmentMeanRows, a: a, segs: segs})
}

// SegmentMaxRows records the matrix whose row s holds the column maxima of
// a's row range s; the gradient routes to the argmax row of each column, the
// first on ties. An empty range pools to zeros and passes no gradient.
func (t *Tape) SegmentMaxRows(a *Node, segs []int) *Node {
	cols := a.Value.Cols
	val := t.alloc(tensor.SegmentCount(segs), cols)
	arg := carve(&t.idx, val.Rows*cols) // MaxRowsInto writes every entry
	var in, res tensor.Matrix
	for s := 0; s < val.Rows; s++ {
		lo, hi := tensor.SegmentBounds(segs, s, a.Value.Rows)
		tensor.MaxRowsInto(rowsView(&in, a.Value, lo, hi), rowsView(&res, val, s, s+1), arg[s*cols:(s+1)*cols])
	}
	return t.result(val, a.requiresGrad, step{op: opSegmentMaxRows, a: a, segs: segs, idx: arg})
}

// GatherRows records the matrix whose i-th row is a's row idx[i] (selecting
// the embeddings of the ready tasks). Gradients scatter-add back, so repeated
// indices are handled correctly.
func (t *Tape) GatherRows(a *Node, idx []int) *Node {
	ids := carve(&t.idx, len(idx))
	copy(ids, idx)
	val := t.alloc(len(ids), a.Value.Cols)
	tensor.GatherRowsInto(a.Value, ids, val)
	return t.result(val, a.requiresGrad, step{op: opGatherRows, a: a, idx: ids})
}

// ConcatCols records [a | b].
func (t *Tape) ConcatCols(a, b *Node) *Node {
	val := t.alloc(a.Value.Rows, a.Value.Cols+b.Value.Cols)
	tensor.ConcatColsInto(a.Value, b.Value, val)
	return t.result(val, anyGrad(a, b), step{op: opConcatCols, a: a, b: b})
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
		mustLive(n)
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
	var parts []*Node
	if req {
		parts = carve(&t.parts, len(nodes))
		copy(parts, nodes)
	}
	return t.result(val, req, step{op: opConcatRows, parts: parts})
}

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
	return t.result(val, a.requiresGrad, step{op: opLogSoftmax, a: a, segs: segs})
}

// Pick records the 1x1 scalar a[i,j].
func (t *Tape) Pick(a *Node, i, j int) *Node {
	val := t.alloc(1, 1)
	val.Data[0] = a.Value.At(i, j)
	return t.result(val, a.requiresGrad, step{op: opPick, a: a, at: i*a.Value.Cols + j})
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
