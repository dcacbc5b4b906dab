package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroInitialised(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len=%d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("entry %d not zero: %v", i, v)
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("At returned wrong values: %v", m)
	}
	m.Set(1, 1, 42)
	if m.At(1, 1) != 42 {
		t.Fatal("Set did not stick")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer mustPanic(t, "FromSlice")
	FromSlice(2, 2, []float64{1, 2, 3})
}

// eye is the n x n identity matrix.
func eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// full is a rows x cols matrix with every entry v.
func full(rows, cols int, v float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// transposed is the transpose of m.
func transposed(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	TransposeInto(m, t)
	return t
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := transposed(m)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("bad transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(r8, c8 uint8) bool {
		r, c := int(r8%20)+1, int(c8%20)+1
		m := RandNormal(rng, r, c, 1)
		return transposed(transposed(m)).Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowIsView(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row should be a view")
	}
}

func TestAllClose(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{1.0005, 2})
	if !a.AllClose(b, 1e-3) {
		t.Fatal("AllClose should accept within tol")
	}
	if a.AllClose(b, 1e-6) {
		t.Fatal("AllClose should reject outside tol")
	}
	if a.AllClose(New(2, 1), 1) {
		t.Fatal("AllClose should reject shape mismatch")
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := GlorotUniform(rng, 30, 50)
	limit := math.Sqrt(6.0 / 80.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Glorot value %v outside [-%v, %v]", v, limit, limit)
		}
	}
}

func mustPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s should panic", what)
	}
}
