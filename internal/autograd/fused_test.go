package autograd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"readys/internal/tensor"
)

var negZero = math.Copysign(0, -1)

// dotTransB is the dot loop the input gradient ∂C·Wᵀ was taken with before it
// went through the row kernel: out[i,j] = Σ_k c[i,k]·w[j,k], summed over
// ascending k from +0 with every term added, zeros included.
func dotTransB(c, w *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(c.Rows, w.Rows)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < w.Rows; j++ {
			var s float64
			for k := 0; k < c.Cols; k++ {
				s += float64(c.At(i, k) * w.At(j, k))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func mustSameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), want %v (%#x)", what, i, v, math.Float64bits(v), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestLinearReLUSegMatchesThreeOps: the fused dense-layer node gives, bit for
// bit, the output, input gradient and parameter gradients of MatMulSeg +
// AddRowVectorSeg + ReLU, and its input gradient is the ∂C·Wᵀ dot loop.
// At 5 inputs and 4 outputs every product runs the Go loops, at 9 and 32 the
// row kernel (where the host has AVX2). One input row is zero, so its
// pre-activations are exactly the bias — +0 from a +0 and from a −0 bias entry
// (a sum from +0 is never −0), and negative — and some inputs are −0, terms
// the products skip. The upstream gradient holds −0s and zeros where the
// output is positive and where it is masked. The fused node runs twice: read
// by the loss directly, and read through a gather of all its rows — a step
// that keeps its shape only — and then dropped, so that the loss's product
// takes its buffer and overwrites it: the backward then has the ReLU mask and
// nothing else of the output to go by.
func TestLinearReLUSegMatchesThreeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const rows = 7
	for _, sh := range [][2]int{{5, 4}, {9, 32}} {
		in, cols := sh[0], sh[1]
		for _, segs := range [][]int{nil, {0, 3, 4, 7}} {
			x, w, bias := randMat(rng, rows, in), randMat(rng, in, cols), randMat(rng, 1, cols)
			clear(x.Row(2))
			bias.Data[0], bias.Data[1], bias.Data[2] = 0, negZero, -0.5
			x.Data[5], x.Data[17] = negZero, negZero
			up := randMat(rng, rows, cols)
			for i := range up.Data {
				switch i % 5 {
				case 1:
					up.Data[i] = negZero
				case 3:
					up.Data[i] = 0
				}
			}

			type result struct{ out, dx, dw, db *tensor.Matrix }
			run := func(layer func(tp *Tape, x, w, b *Node) *Node, drop bool) result {
				r := result{dw: tensor.New(in, cols), db: tensor.New(1, cols)}
				tp := NewTape()
				xv := tp.Var(x)
				c := layer(tp, xv, tp.Param(w, r.dw), tp.Param(bias, r.db))
				buf, read := c.Value, c
				if drop {
					all := make([]int, rows)
					for i := range all {
						all[i] = i
					}
					read = tp.GatherRows(c, all)
					tp.Drop(c)
				}
				prod := tp.Mul(read, tp.Const(up))
				if drop && prod.Value != buf {
					t.Fatal("the loss's product did not take the dropped output's buffer")
				}
				tp.Backward(tp.SumAll(prod))
				r.out, r.dx = clone(read.Value), clone(xv.Grad)
				tp.Release()
				return r
			}
			three := run(func(tp *Tape, x, w, b *Node) *Node {
				return tp.ReLU(tp.AddRowVectorSeg(tp.MatMulSeg(x, w, segs), b, segs))
			}, false)
			layer := func(tp *Tape, x, w, b *Node) *Node { return tp.LinearReLUSeg(x, w, b, segs) }
			fused, dropped := run(layer, false), run(layer, true)

			for _, r := range []struct {
				name string
				result
			}{{"", fused}, {"dropped ", dropped}} {
				mustSameBits(t, r.name+"output", r.out, three.out)
				mustSameBits(t, r.name+"input gradient", r.dx, three.dx)
				mustSameBits(t, r.name+"weight gradient", r.dw, three.dw)
				mustSameBits(t, r.name+"bias gradient", r.db, three.db)
			}
			for j := 0; j < 3; j++ {
				if v := fused.out.At(2, j); math.Float64bits(v) != 0 {
					t.Fatalf("width %d: a zero row's output %d is %v, want +0", cols, j, v)
				}
			}
			dc := clone(up)
			for i, v := range fused.out.Data {
				if !(v > 0) {
					dc.Data[i] = 0
				}
			}
			mustSameBits(t, "input gradient vs the dot loop", fused.dx, dotTransB(dc, w))
		}
	}
}

// freeListed returns the buffers on tp's free list, by address.
func freeListed(tp *Tape) map[uintptr]int {
	free := reflect.ValueOf(&tp.bufs).Elem().FieldByName("free")
	on := make(map[uintptr]int, free.Len())
	for i := 0; i < free.Len(); i++ {
		on[free.Index(i).Pointer()]++
	}
	return on
}

// TestFirstGradientMoves pins the gradient-ownership rule. An op node's first
// gradient is moved into it, not added onto a zeroed accumulator: here u first
// receives a −0 (a Mul by a −0 constant), which a Var in w's place keeps, and
// the Param behind u still ends with the +0 zero-fill-and-add gave it. And a
// buffer has one owner (mustOwnOnce): after Backward no node's gradient is on
// the free list or shared with another node, and after Reset no buffer is on
// the list twice — what a gradient handed on by pass and then freed by its old
// node would leave. The same holds after the forward and after the backward of
// a pass that drops the activations of a two-layer GCN once their readers have
// read them, whose buffers the next outputs and gradients take.
func TestFirstGradientMoves(t *testing.T) {
	w := tensor.FromSlice(1, 3, []float64{2, -3, 0.5})
	c := tensor.FromSlice(1, 3, []float64{negZero, 1, -0.25})
	for _, param := range []bool{true, false} {
		grad := tensor.New(1, 3)
		tp := NewTape()
		wn := tp.Var(w)
		if param {
			wn = tp.Param(w, grad)
		}
		u := tp.Scale(wn, 1.5)
		tp.Backward(tp.SumAll(tp.Mul(u, tp.Const(c))))
		want := []float64{0, 1.5, -0.375}
		if !param {
			want[0] = negZero
		}
		mustSameBits(t, "w's gradient", wn.Grad, tensor.FromSlice(1, 3, want))
		tp.Release()
	}

	// Every op that hands a gradient on, with reused nodes and a stacked layer.
	rng := rand.New(rand.NewSource(22))
	segs := []int{0, 2, 3, 6}
	tp := NewTape()
	x := tp.Var(randMat(rng, 6, 5))
	wp := tp.Param(randMat(rng, 5, 8), tensor.New(5, 8))
	bp := tp.Param(randMat(rng, 1, 8), tensor.New(1, 8))
	proj := tp.Var(randMat(rng, 8, 1))
	h := tp.LinearReLUSeg(x, wp, bp, segs)
	h = tp.Add(h, tp.ReLU(tp.AddRowVectorSeg(tp.MatMulSeg(h, tp.Const(randMat(rng, 8, 8)), segs), bp, segs)))
	h = tp.Sub(tp.Mul(h, h), tp.Scale(tp.Exp(tp.Scale(h, 0.1)), 0.5))
	scores := tp.SegmentLogSoftmax(tp.MatMulSeg(h, proj, segs), segs)
	pooled := tp.ConcatCols(tp.SegmentMaxRows(h, segs), tp.SegmentMeanRows(h, segs))
	loss := tp.Add(tp.SumAll(tp.GatherRows(scores, []int{0, 2, 2, 5})), tp.SumAll(tp.Square(pooled)))
	tp.Backward(tp.AddConst(tp.Add(loss, tp.Pick(scores, 1, 0)), 1))

	mustOwnOnce(t, tp, "after Backward")
	tp.Reset()
	mustOwnOnce(t, tp, "after Reset")

	sp := randomSparseOperator(rng, 6)
	wp = tp.Param(randMat(rng, 5, 8), tensor.New(5, 8))
	wq := tp.Param(randMat(rng, 8, 8), tensor.New(8, 8))
	bp = tp.Param(randMat(rng, 1, 8), tensor.New(1, 8))
	proj = tp.Var(randMat(rng, 8, 1))
	h1 := tp.LinearReLUSeg(tp.Var(randMat(rng, 6, 5)), wp, bp, segs)
	h2 := tp.LinearReLUSeg(tp.SpMM(sp, h1), wq, bp, segs)
	tp.Drop(h1)
	h3 := tp.LinearReLUSeg(tp.SpMM(sp, h2), wq, bp, segs)
	tp.Drop(h2)
	pooled = tp.ConcatCols(tp.SegmentMaxRows(h3, segs), tp.SegmentMeanRows(h3, segs))
	ready := tp.GatherRows(h3, []int{1, 4, 4})
	tp.Drop(h3)
	mustOwnOnce(t, tp, "after a forward with drops")
	tp.Backward(tp.Add(tp.SumAll(tp.Square(pooled)), tp.SumAll(tp.MatMulSeg(ready, proj, nil))))
	mustOwnOnce(t, tp, "after a Backward with drops")
	tp.Reset()
	mustOwnOnce(t, tp, "after a Reset with drops")
}

// mustOwnOnce fails unless every buffer of tp has one owner: none is on the
// free list twice, and no op output's value or tape-drawn gradient is retired,
// on the free list, or another node's value or gradient as well.
func mustOwnOnce(t *testing.T, tp *Tape, when string) {
	t.Helper()
	on := freeListed(tp)
	for p, k := range on {
		if k > 1 {
			t.Fatalf("%s: buffer %#x is on the free list %d times", when, p, k)
		}
	}
	owner := map[uintptr]int{}
	claim := func(i int, what string, m *tensor.Matrix) {
		p := reflect.ValueOf(m).Pointer()
		if j, ok := owner[p]; ok {
			t.Fatalf("%s: node %d's %s is node %d's too", when, i, what, j)
		}
		if on[p] > 0 || m.Rows < 0 {
			t.Fatalf("%s: node %d's %s is on the free list", when, i, what)
		}
		owner[p] = i
	}
	for i := range tp.n {
		n := tp.node(i)
		if !n.leaf {
			claim(i, "value", n.Value)
		}
		if n.Grad != nil && !n.extGrad {
			claim(i, "gradient", n.Grad)
		}
	}
}

// TestInferenceTapeRecordsNoSteps: nothing on an inference tape requires a
// gradient, so a pass keeps no backward step and no ConcatRows input list —
// serving memory does not grow with the steps a gradient tape keeps.
func TestInferenceTapeRecordsNoSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tp := NewInferenceTape()
	for range 2 {
		tp.Reset()
		h := tp.LinearReLUSeg(tp.Const(randMat(rng, 4, 3)), tp.Const(randMat(rng, 3, 3)), tp.Const(randMat(rng, 1, 3)), nil)
		scores := tp.MatMulSeg(tp.GatherRows(h, []int{2, 0}), tp.Const(randMat(rng, 3, 1)), nil)
		tp.ConcatRows(tp.SegmentLogSoftmax(scores, nil), tp.Pick(h, 0, 0))
		if len(tp.steps) != 0 || len(tp.parts) != 0 {
			t.Fatalf("an inference pass kept %d backward steps and %d ConcatRows inputs", len(tp.steps), len(tp.parts))
		}
	}
}
