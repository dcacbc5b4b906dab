package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int, sparsity float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Float64() >= sparsity {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func TestMatMul32SkipMatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ m, n, p int }{{1, 1, 1}, {3, 5, 4}, {22, 22, 64}, {17, 64, 64}} {
		a64 := randMatrix(rng, tc.m, tc.n, 0.5)
		b64 := randMatrix(rng, tc.n, tc.p, 0)
		want := MatMul(a64, b64)

		var a32, b32, out Matrix32
		a32.SetFrom(a64)
		b32.SetFrom(b64)
		MatMul32SkipInto(&a32, &b32, &out)
		if out.Rows != tc.m || out.Cols != tc.p {
			t.Fatalf("shape %dx%d, want %dx%d", out.Rows, out.Cols, tc.m, tc.p)
		}
		for i, v := range out.Data {
			if math.Abs(float64(v)-want.Data[i]) > 1e-4*(1+math.Abs(want.Data[i])) {
				t.Fatalf("%dx%dx%d elem %d: f32 %v vs f64 %v", tc.m, tc.n, tc.p, i, v, want.Data[i])
			}
		}
	}
}

func TestSpMM32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	entries := make([][]SparseEntry, 16)
	for i := range entries {
		entries[i] = []SparseEntry{{Col: i, Val: rng.Float64()}}
		for j := 0; j < 3; j++ {
			entries[i] = append(entries[i], SparseEntry{Col: rng.Intn(16), Val: rng.Float64()})
		}
	}
	s := SparseFromRows(16, 16, entries)
	d64 := randMatrix(rng, 16, 32, 0)
	want := SpMM(s, d64)

	val32 := make([]float32, len(s.Val))
	for i, v := range s.Val {
		val32[i] = float32(v)
	}
	var d32, out Matrix32
	d32.SetFrom(d64)
	SpMM32Into(s, val32, &d32, &out)
	for i, v := range out.Data {
		if math.Abs(float64(v)-want.Data[i]) > 1e-4*(1+math.Abs(want.Data[i])) {
			t.Fatalf("elem %d: f32 %v vs f64 %v", i, v, want.Data[i])
		}
	}
}
