package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDAGDense builds a dense normalised-adjacency-like matrix of a random
// DAG on n nodes: upper-triangular edges with self-loops and random positive
// weights, the shape SpMM sees on the GCN hot path.
func randomDAGDense(rng *rand.Rand, n int, p float64) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, rng.Float64()+0.1)
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				w := rng.Float64() + 0.1
				m.Set(i, j, w)
				m.Set(j, i, w)
			}
		}
	}
	return m
}

func TestSparseFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomDAGDense(rng, 9, 0.3)
	s := SparseFromDense(d)
	if !s.Dense().Equal(d) {
		t.Fatal("CSR round trip lost entries")
	}
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if s.At(i, j) != d.At(i, j) {
				t.Fatalf("At(%d,%d) = %v, dense %v", i, j, s.At(i, j), d.At(i, j))
			}
		}
	}
}

func TestSparseFromRowsSortsAndAccumulates(t *testing.T) {
	s := SparseFromRows(2, 3, [][]SparseEntry{
		{{Col: 2, Val: 1}, {Col: 0, Val: 2}, {Col: 2, Val: 3}},
		{},
	})
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (duplicates must merge)", s.NNZ())
	}
	if s.At(0, 0) != 2 || s.At(0, 2) != 4 || s.At(1, 1) != 0 {
		t.Fatalf("unexpected values: %v %v", s.At(0, 0), s.At(0, 2))
	}
}

func TestSpMMMatchesDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(n8, h8 uint8) bool {
		n := int(n8%24) + 1
		h := int(h8%9) + 1
		d := randomDAGDense(rng, n, 0.25)
		x := RandNormal(rng, n, h, 1)
		return SpMM(SparseFromDense(d), x).Equal(MatMul(d, x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMLargeCrossesParallelThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 192
	d := randomDAGDense(rng, n, 0.4)
	x := RandNormal(rng, n, 64, 1)
	s := SparseFromDense(d)
	if s.NNZ()*x.Cols < parallelThreshold {
		t.Fatalf("test must exercise the parallel path: work %d < threshold %d", s.NNZ()*x.Cols, parallelThreshold)
	}
	if !SpMM(s, x).Equal(MatMul(d, x)) {
		t.Fatal("parallel SpMM diverges from dense MatMul")
	}
}

func TestSpMMTransAMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(20) + 1
		h := rng.Intn(8) + 1
		d := randomDAGDense(rng, n, 0.3)
		g := RandNormal(rng, n, h, 1)
		got := New(n, h)
		SpMMTransAInto(SparseFromDense(d), g, got)
		if !got.Equal(MatMulTransA(d, g)) {
			t.Fatal("SpMMTransAInto diverges from dense MatMulTransA")
		}
	}
}

func TestSpMMIntoOverwritesDirtyDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDAGDense(rng, 6, 0.3)
	x := RandNormal(rng, 6, 4, 1)
	s := SparseFromDense(d)
	out := full(6, 4, 123.0)
	SpMMInto(s, x, out)
	if !out.Equal(MatMul(d, x)) {
		t.Fatal("SpMMInto must fully overwrite its destination")
	}
	out2 := full(6, 4, -7.0)
	SpMMTransAInto(s, x, out2)
	if !out2.Equal(MatMulTransA(d, x)) {
		t.Fatal("SpMMTransAInto must fully overwrite its destination")
	}
}

func TestSpMMShapeMismatchPanics(t *testing.T) {
	s := SparseFromDense(eye(3))
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	SpMM(s, New(4, 2))
}
