package autograd

import (
	"math/rand"
	"testing"

	"readys/internal/tensor"
)

// randomSparseOperator builds a symmetric DAG-like propagation operator in
// CSR form (self-loops plus random off-diagonal weights), the constant
// operand shape Tape.SpMM sees from the GCN.
func randomSparseOperator(rng *rand.Rand, n int) *tensor.Sparse {
	d := tensor.New(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, rng.Float64()+0.1)
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.35 {
				w := rng.Float64() + 0.1
				d.Set(i, j, w)
				d.Set(j, i, w)
			}
		}
	}
	return tensor.SparseFromDense(d)
}

func TestGradSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randomSparseOperator(rng, 5)
	checkGrad(t, "spmm", func(tp *Tape, xs []*Node) *Node {
		return tp.SumAll(tp.Square(tp.SpMM(s, xs[0])))
	}, []*tensor.Matrix{randMat(rng, 5, 3)}, 1e-5)
}

func TestGradSpMMThroughChain(t *testing.T) {
	// Gradient flow through SpMM composed with MatMul and ReLU — the exact
	// shape of a GCN layer.
	rng := rand.New(rand.NewSource(22))
	s := randomSparseOperator(rng, 4)
	checkGrad(t, "spmm-chain", func(tp *Tape, xs []*Node) *Node {
		h := tp.ReLU(tp.MatMulSeg(tp.SpMM(s, xs[0]), xs[1], nil))
		return tp.SumAll(h)
	}, []*tensor.Matrix{randMat(rng, 4, 3), randMat(rng, 3, 2)}, 1e-5)
}

func TestSpMMMatchesDenseOnTape(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := randomSparseOperator(rng, 8)
	x := randMat(rng, 8, 4)
	tp := NewTape()
	sparse := tp.SpMM(s, tp.Const(x))
	dense := tp.MatMulSeg(tp.Const(s.Dense()), tp.Const(x), nil)
	if !sparse.Value.Equal(dense.Value) {
		t.Fatal("tape SpMM diverges from dense MatMul")
	}
}
