package autograd

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"readys/internal/tensor"
)

// checkGrad validates reverse-mode gradients of f against central finite
// differences for every input matrix. f must build a 1x1 scalar from the
// tape-bound inputs and must be deterministic.
func checkGrad(t *testing.T, name string, f func(tp *Tape, xs []*Node) *Node, inputs []*tensor.Matrix, tol float64) {
	t.Helper()
	tp := NewTape()
	vars := make([]*Node, len(inputs))
	for i, m := range inputs {
		vars[i] = tp.Var(m)
	}
	out := f(tp, vars)
	tp.Backward(out)

	const eps = 1e-6
	for vi, m := range inputs {
		for di := range m.Data {
			orig := m.Data[di]
			m.Data[di] = orig + eps
			plus := evalScalar(f, inputs)
			m.Data[di] = orig - eps
			minus := evalScalar(f, inputs)
			m.Data[di] = orig
			want := (plus - minus) / (2 * eps)
			var got float64
			if vars[vi].Grad != nil {
				got = vars[vi].Grad.Data[di]
			}
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s: grad input %d elem %d = %v, finite diff %v", name, vi, di, got, want)
			}
		}
	}
}

func evalScalar(f func(tp *Tape, xs []*Node) *Node, inputs []*tensor.Matrix) float64 {
	tp := NewTape()
	vars := make([]*Node, len(inputs))
	for i, m := range inputs {
		vars[i] = tp.Var(m)
	}
	return Scalar(f(tp, vars))
}

func randMat(rng *rand.Rand, r, c int) *tensor.Matrix {
	return tensor.RandNormal(rng, r, c, 1)
}

// clone is a deep copy of m.
func clone(m *tensor.Matrix) *tensor.Matrix {
	return tensor.FromSlice(m.Rows, m.Cols, append([]float64(nil), m.Data...))
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkGrad(t, "matmul", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.MatMulSeg(xs[0], xs[1], nil))
	}, []*tensor.Matrix{randMat(rng, 3, 4), randMat(rng, 4, 2)}, 1e-5)
}

func TestGradAddSubMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checkGrad(t, "add-sub-mul", func(tp *Tape, xs []*Node) *Node {
		s := tp.Mul(tp.Add(xs[0], xs[1]), tp.Sub(xs[0], xs[1]))
		return tp.SumAll(s)
	}, []*tensor.Matrix{randMat(rng, 2, 3), randMat(rng, 2, 3)}, 1e-5)
}

func TestGradScaleAddConst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkGrad(t, "scale", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.AddConst(tp.Scale(xs[0], -2.5), 3))
	}, []*tensor.Matrix{randMat(rng, 2, 2)}, 1e-6)
}

func TestGradAddRowVector(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	checkGrad(t, "bias", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.Square(tp.AddRowVectorSeg(xs[0], xs[1], nil)))
	}, []*tensor.Matrix{randMat(rng, 3, 4), randMat(rng, 1, 4)}, 1e-5)
}

func TestGradReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Shift inputs away from 0 where ReLU is non-differentiable.
	m := randMat(rng, 4, 4)
	for i := range m.Data {
		if math.Abs(m.Data[i]) < 0.05 {
			m.Data[i] = 0.1
		}
	}
	checkGrad(t, "relu", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.Square(tp.ReLU(xs[0])))
	}, []*tensor.Matrix{m}, 1e-5)
}

func TestGradExp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkGrad(t, "exp", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.Exp(tp.Scale(tp.Square(xs[0]), -0.5)))
	}, []*tensor.Matrix{randMat(rng, 2, 3)}, 1e-5)
}

func TestGradMeanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	checkGrad(t, "meanrows", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.Square(tp.SegmentMeanRows(xs[0], nil)))
	}, []*tensor.Matrix{randMat(rng, 5, 3)}, 1e-5)
}

func TestGradMaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Spread values so the argmax is stable under the finite-difference eps.
	m := randMat(rng, 4, 3)
	for i := range m.Data {
		m.Data[i] *= 10
	}
	checkGrad(t, "maxrows", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.Square(tp.SegmentMaxRows(xs[0], nil)))
	}, []*tensor.Matrix{m}, 1e-5)
}

func TestGradGatherRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	checkGrad(t, "gather", func(tp *Tape, xs []*Node) *Node {
		// Repeated index 2 exercises scatter-add.
		return tp.SumAll(tp.Square(tp.GatherRows(xs[0], []int{2, 0, 2})))
	}, []*tensor.Matrix{randMat(rng, 4, 3)}, 1e-5)
}

func TestGradConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checkGrad(t, "concat", func(tp *Tape, xs []*Node) *Node {
		h := tp.ConcatCols(xs[0], xs[1])
		v := tp.ConcatRows(h, h)
		return tp.SumAll(tp.Square(v))
	}, []*tensor.Matrix{randMat(rng, 2, 2), randMat(rng, 2, 3)}, 1e-5)
}

func TestGradLogSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	checkGrad(t, "logsoftmax", func(tp *Tape, xs []*Node) *Node {
		ls := tp.SegmentLogSoftmax(xs[0], nil)
		// Weighted negative log likelihood of entry 1 plus entropy-ish term.
		pick := tp.Pick(ls, 1, 0)
		ent := tp.SumAll(tp.Mul(tp.Exp(ls), ls))
		return tp.Add(tp.Neg(pick), tp.Scale(ent, 0.3))
	}, []*tensor.Matrix{randMat(rng, 5, 1)}, 1e-4)
}

func TestGradPick(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checkGrad(t, "pick", func(tp *Tape, xs []*Node) *Node {
		return tp.Square(tp.Pick(xs[0], 1, 2))
	}, []*tensor.Matrix{randMat(rng, 3, 4)}, 1e-6)
}

func TestGradComposite(t *testing.T) {
	// A miniature version of the actual policy head: GCN-ish propagate, pool,
	// project, softmax, NLL + value MSE — gradients must flow end-to-end.
	rng := rand.New(rand.NewSource(14))
	adj := randMat(rng, 5, 5) // stands in for the normalised adjacency
	checkGrad(t, "composite", func(tp *Tape, xs []*Node) *Node {
		x, w1, w2, vproj := xs[0], xs[1], xs[2], xs[3]
		a := tp.Const(adj)
		h := tp.ReLU(tp.MatMulSeg(tp.MatMulSeg(a, x, nil), w1, nil))
		h = tp.ReLU(tp.MatMulSeg(tp.MatMulSeg(a, h, nil), w2, nil))
		scores := tp.GatherRows(h, []int{0, 2, 4})
		col := tp.MatMulSeg(scores, vproj, nil) // 3x1
		ls := tp.SegmentLogSoftmax(col, nil)
		nll := tp.Neg(tp.Pick(ls, 1, 0))
		v := tp.MatMulSeg(tp.SegmentMeanRows(h, nil), vproj, nil)
		mse := tp.Square(tp.AddConst(v, -0.37))
		return tp.Add(nll, tp.Scale(mse, 0.5))
	}, []*tensor.Matrix{
		randMat(rng, 5, 4),
		randMat(rng, 4, 6),
		randMat(rng, 6, 6),
		randMat(rng, 6, 1),
	}, 1e-4)
}

func TestLogSoftmaxIsNormalisedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	f := func(n8 uint8, scale float64) bool {
		n := int(n8%10) + 1
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			scale = 1
		}
		// Large magnitudes stress numerical stability.
		m := tensor.RandNormal(rng, n, 1, 1+math.Mod(math.Abs(scale), 100))
		tp := NewTape()
		ls := tp.SegmentLogSoftmax(tp.Const(m), nil)
		var sum float64
		for _, v := range ls.Value.Data {
			if math.IsNaN(v) || v > 1e-9 {
				return false
			}
			sum += math.Exp(v)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardRequiresScalarRoot(t *testing.T) {
	tp := NewTape()
	n := tp.Var(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on non-scalar should panic")
		}
	}()
	tp.Backward(n)
}

func TestConstGetsNoGrad(t *testing.T) {
	tp := NewTape()
	c := tp.Const(tensor.FromSlice(2, 2, []float64{1, 1, 1, 1}))
	v := tp.Var(tensor.FromSlice(2, 2, []float64{2, 2, 2, 2}))
	out := tp.SumAll(tp.Mul(c, v))
	tp.Backward(out)
	if c.Grad != nil {
		t.Fatal("const accumulated gradient")
	}
	if v.Grad == nil || v.Grad.At(0, 0) != 1 {
		t.Fatalf("var gradient wrong: %v", v.Grad)
	}
}

func TestGradAccumulatesOverReuse(t *testing.T) {
	// Using the same node twice must sum both gradient paths.
	tp := NewTape()
	x := tp.Var(tensor.FromSlice(1, 1, []float64{3}))
	y := tp.Add(x, x) // dy/dx = 2
	tp.Backward(tp.SumAll(y))
	if x.Grad.Data[0] != 2 {
		t.Fatalf("grad = %v, want 2", x.Grad.Data[0])
	}
}

// A segment table with an empty range in the middle: rows 0-2, none, 3-6.
var testSegs = []int{0, 3, 3, 7}

func TestGradSegmentPooling(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// Spread values so every argmax is stable under the finite-difference eps.
	m := randMat(rng, 7, 3)
	for i := range m.Data {
		m.Data[i] *= 10
	}
	w := randMat(rng, 3, 3) // weights the pooled rows so ranges are told apart
	checkGrad(t, "segment-maxrows", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.Square(tp.Mul(tp.SegmentMaxRows(xs[0], testSegs), tp.Const(w))))
	}, []*tensor.Matrix{m}, 1e-5)
	checkGrad(t, "segment-meanrows", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.Square(tp.Mul(tp.SegmentMeanRows(xs[0], testSegs), tp.Const(w))))
	}, []*tensor.Matrix{m}, 1e-5)

	tp := NewTape()
	for name, pooled := range map[string]*Node{
		"max":  tp.SegmentMaxRows(tp.Const(m), testSegs),
		"mean": tp.SegmentMeanRows(tp.Const(m), testSegs),
	} {
		for _, v := range pooled.Value.Row(1) {
			if v != 0 {
				t.Fatalf("%s-pool of an empty range is %v, want zeros", name, pooled.Value.Row(1))
			}
		}
	}
}

// TestSegmentMaxRowsTiesFirstWins: on tied maxima the gradient goes to the
// first tied row of the range, as tensor.MaxRowsInto breaks ties.
func TestSegmentMaxRowsTiesFirstWins(t *testing.T) {
	x := tensor.FromSlice(5, 2, []float64{1, 5, 2, 5, 2, 4, 7, 0, 7, 0})
	tp := NewTape()
	xv := tp.Var(x)
	pooled := tp.SegmentMaxRows(xv, []int{0, 3, 5})
	if want := tensor.FromSlice(2, 2, []float64{2, 5, 7, 0}); !pooled.Value.Equal(want) {
		t.Fatalf("pooled %v, want %v", pooled.Value, want)
	}
	tp.Backward(tp.SumAll(tp.Mul(pooled, tp.Const(tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})))))
	want := tensor.FromSlice(5, 2, []float64{0, 2, 1, 0, 0, 0, 3, 4, 0, 0})
	if !xv.Grad.Equal(want) {
		t.Fatalf("gradient routed to %v, want %v", xv.Grad, want)
	}
}

func TestGradSegmentLogSoftmaxAndSum(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := randMat(rng, 3, 1)
	checkGrad(t, "segment-logsoftmax", func(tp *Tape, xs []*Node) *Node {
		ls := tp.SegmentLogSoftmax(xs[0], testSegs)
		// Per range: the log-likelihood of one entry plus an entropy term,
		// weighted so the ranges are told apart.
		picked := tp.GatherRows(ls, []int{1, 5})
		ent := tp.Mul(tp.SegmentSum(tp.Mul(tp.Exp(ls), ls), testSegs), tp.Const(w))
		return tp.Add(tp.Neg(tp.SumAll(picked)), tp.Scale(tp.SumAll(ent), 0.3))
	}, []*tensor.Matrix{randMat(rng, 7, 1)}, 1e-4)

	tp := NewTape()
	ls := tp.SegmentLogSoftmax(tp.Const(randMat(rng, 7, 1)), testSegs)
	for s := 0; s+1 < len(testSegs); s++ {
		if testSegs[s] == testSegs[s+1] {
			continue
		}
		var sum float64
		for _, v := range ls.Value.Data[testSegs[s]:testSegs[s+1]] {
			sum += math.Exp(v)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("range %d of the segmented log-softmax sums to %v", s, sum)
		}
	}
}

func TestGradSegmentedLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	checkGrad(t, "matmul-seg", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.Square(tp.AddRowVectorSeg(tp.MatMulSeg(xs[0], xs[1], testSegs), xs[2], testSegs)))
	}, []*tensor.Matrix{randMat(rng, 7, 4), randMat(rng, 4, 2), randMat(rng, 1, 2)}, 1e-5)
	checkGrad(t, "linear-relu-seg", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.Square(tp.LinearReLUSeg(xs[0], xs[1], xs[2], testSegs)))
	}, []*tensor.Matrix{randMat(rng, 7, 4), randMat(rng, 4, 3), randMat(rng, 1, 3)}, 1e-5)
}

// TestSegmentOpsMatchPerSegmentTapes is the batch-width contract at the op
// level: a linear layer — three ops or the fused node — pooling, log-softmax
// and a sum evaluated once over a stack with a segment table give, bit for
// bit, the values of one tape per range and the parameter gradients those
// tapes sum in range order.
func TestSegmentOpsMatchPerSegmentTapes(t *testing.T) {
	for name, layer := range map[string]func(tp *Tape, x, w, bias *Node, segs []int) *Node{
		"three-ops": func(tp *Tape, x, w, bias *Node, segs []int) *Node {
			return tp.ReLU(tp.AddRowVectorSeg(tp.MatMulSeg(x, w, segs), bias, segs))
		},
		"fused": (*Tape).LinearReLUSeg,
	} {
		t.Run(name, func(t *testing.T) { segmentOpsMatchPerSegmentTapes(t, layer) })
	}
}

func segmentOpsMatchPerSegmentTapes(t *testing.T, layer func(tp *Tape, x, w, bias *Node, segs []int) *Node) {
	rng := rand.New(rand.NewSource(19))
	x, w, bias, proj := randMat(rng, 7, 4), randMat(rng, 4, 3), randMat(rng, 1, 3), randMat(rng, 3, 1)
	// The head: h = ReLU(x·w + b); out = Σ logsoftmax(h·proj)² + Σ max(h)·mean(h).
	head := func(tp *Tape, x, w, bias, proj *Node, segs []int) (*Node, *Node) {
		h := layer(tp, x, w, bias, segs)
		ls := tp.SegmentLogSoftmax(tp.MatMulSeg(h, proj, segs), segs)
		pooled := tp.Mul(tp.SegmentMaxRows(h, segs), tp.SegmentMeanRows(h, segs))
		return ls, tp.Add(tp.SegmentSum(tp.Square(ls), segs), tp.SegmentSum(pooled, nil2unit(segs, pooled.Value.Rows)))
	}

	segs := []int{0, 3, 4, 7}
	grads := func() []*tensor.Matrix {
		return []*tensor.Matrix{tensor.New(4, 3), tensor.New(1, 3), tensor.New(3, 1)}
	}
	stacked, single := grads(), grads()

	tp := NewTape()
	ls, per := head(tp, tp.Const(x), tp.Param(w, stacked[0]), tp.Param(bias, stacked[1]), tp.Param(proj, stacked[2]), segs)
	tp.Backward(tp.SumAll(per))

	for s := 0; s+1 < len(segs); s++ {
		lo, hi := segs[s], segs[s+1]
		xs := tensor.FromSlice(hi-lo, 4, x.Data[lo*4:hi*4])
		one := NewTape()
		lsOne, perOne := head(one, one.Const(xs), one.Param(w, single[0]), one.Param(bias, single[1]), one.Param(proj, single[2]), nil)
		if perOne.Value.Data[0] != per.Value.Data[s] {
			t.Fatalf("range %d: stacked output %v, own tape %v", s, per.Value.Data[s], perOne.Value.Data[0])
		}
		for i, v := range lsOne.Value.Data {
			if v != ls.Value.Data[lo+i] {
				t.Fatalf("range %d: log-softmax entry %d is %v stacked, %v on its own tape", s, i, ls.Value.Data[lo+i], v)
			}
		}
		one.Backward(one.SumAll(perOne))
		one.Release()
	}
	for i := range stacked {
		if !stacked[i].Equal(single[i]) {
			t.Fatalf("parameter %d: stacked gradient %v, per-range tapes summed %v", i, stacked[i], single[i])
		}
	}
	tp.Release()
	if stacked[0].Data == nil {
		t.Fatal("Release took a Param's gradient, which is the caller's")
	}
}

// nil2unit returns the table of a matrix with one row per range of segs.
func nil2unit(segs []int, rows int) []int {
	if segs == nil {
		return nil
	}
	unit := make([]int, rows+1)
	for i := range unit {
		unit[i] = i
	}
	return unit
}

// TestBackwardRecyclesOpGradients: after Backward only leaves hold a gradient.
func TestBackwardRecyclesOpGradients(t *testing.T) {
	tp := NewTape()
	x := tp.Var(tensor.FromSlice(2, 2, []float64{3, 3, 3, 3}))
	sq := tp.Square(x)
	tp.Backward(tp.SumAll(sq))
	if sq.Grad != nil {
		t.Fatal("an op node kept its gradient accumulator after its backward step")
	}
	if x.Grad == nil || x.Grad.At(1, 1) != 6 {
		t.Fatalf("leaf gradient %v, want 6s", x.Grad)
	}
}

// TestResetKeepsBuffersAndParamGradients: a pass on a Reset tape draws its
// buffers from the tape's own list — also right after a collection — and the
// gradients of both passes add up in the caller's Param accumulator.
func TestResetKeepsBuffersAndParamGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x, w, grad := randMat(rng, 512, 64), randMat(rng, 64, 64), tensor.New(64, 64)
	tp := NewTape()
	pass := func() {
		h := tp.ReLU(tp.MatMulSeg(tp.Const(x), tp.Param(w, grad), nil))
		tp.Backward(tp.SumAll(tp.Square(h)))
	}
	pass()
	once := clone(grad)
	tp.Reset()
	if tp.n != 0 {
		t.Fatalf("%d nodes left after Reset", tp.n)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	// One 512x64 buffer is 256 kB; nodes and closures are a few hundred bytes.
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<10 {
		t.Fatalf("a pass on a Reset tape allocated %d bytes: its buffers were not kept", got)
	}
	for i, v := range grad.Data {
		if v != once.Data[i]+once.Data[i] {
			t.Fatalf("gradient %d after two passes is %v, want twice %v", i, v, once.Data[i])
		}
	}
	tp.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a released tape did not panic")
		}
	}()
	tp.Reset()
}
