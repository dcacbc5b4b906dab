package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The AVX2 kernels must match the portable loops bit for bit — the training
// path depends on it. Exercise every vector width remainder and the special
// values that could diverge under a fused or reordered implementation.
func TestAxpyF64BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphas := []float64{0, math.Copysign(0, -1), 1, -1, 0.3330000000001, -1e-300, 1e300, math.Inf(1)}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 129} {
		for _, alpha := range alphas {
			x := make([]float64, n)
			y0 := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
				y0[i] = rng.NormFloat64()
			}
			// Mix in exact zeros and negative zeros.
			for i := 0; i < n; i += 5 {
				x[i] = 0
			}
			for i := 2; i < n; i += 7 {
				x[i] = math.Copysign(0, -1)
			}
			want := append([]float64(nil), y0...)
			axpyF64Generic(alpha, x, want)
			got := append([]float64(nil), y0...)
			axpyF64(alpha, x, got)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("n=%d alpha=%v i=%d: got %x want %x", n, alpha, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestDetectAVX2Reported(t *testing.T) {
	// Informational: record which path the rest of the suite exercised.
	t.Logf("hasAVX2=%v", hasAVX2)
}
