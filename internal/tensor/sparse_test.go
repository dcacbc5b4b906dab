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
