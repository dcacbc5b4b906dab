package autograd

import (
	"math/rand"
	"testing"

	"readys/internal/tensor"
)

func TestReleaseIsIdempotentAndGuardsReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tp := NewTape()
	x := tp.Var(randMat(rng, 3, 3))
	y := tp.SumAll(tp.Square(x))
	tp.Backward(y)
	got := Scalar(y)
	if got == 0 {
		t.Fatal("expected non-zero scalar before release")
	}
	tp.Release()
	if !tp.released {
		t.Fatal("Release must mark the tape released")
	}
	tp.Release() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("pushing onto a released tape must panic")
		}
	}()
	tp.Const(tensor.New(1, 1))
}

// TestPooledTapesAreDeterministic runs the same computation twice; the second
// run consumes recycled (previously dirty) buffers from the first, so any op
// that fails to fully overwrite its pooled destination would diverge.
func TestPooledTapesAreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randMat(rng, 6, 4)
	b := randMat(rng, 4, 5)
	s := randomSparseOperator(rng, 6)

	run := func() (float64, []float64) {
		tp := NewTape()
		av, bv := tp.Var(a), tp.Var(b)
		h := tp.ReLU(tp.MatMulSeg(tp.SpMM(s, av), bv, nil))
		pooled := tp.ConcatCols(tp.SegmentMeanRows(h, nil), tp.SegmentMaxRows(h, nil))
		loss := tp.SumAll(tp.Square(pooled))
		tp.Backward(loss)
		out := Scalar(loss)
		grad := append([]float64(nil), av.Grad.Data...)
		tp.Release()
		return out, grad
	}
	l1, g1 := run()
	l2, g2 := run()
	if l1 != l2 {
		t.Fatalf("loss changed across pooled runs: %v vs %v", l1, l2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("gradient %d changed across pooled runs", i)
		}
	}
}

// TestParamValuesSurviveRelease pins the ownership rule: Release returns only
// tape-allocated intermediates, never caller-provided Var/Const matrices.
func TestParamValuesSurviveRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	w := randMat(rng, 3, 3)
	before := append([]float64(nil), w.Data...)
	tp := NewTape()
	y := tp.SumAll(tp.MatMulSeg(tp.Var(w), tp.Const(randMat(rng, 3, 3)), nil))
	tp.Backward(y)
	tp.Release()
	for i, v := range w.Data {
		if v != before[i] {
			t.Fatal("Release must not touch caller-owned matrices")
		}
	}
}
