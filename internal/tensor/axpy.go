package tensor

// The axpy kernels are the shared inner loop of every matrix product in this
// package: out_row += alpha * b_row. On amd64 with AVX2 they run vectorised
// (see axpy_amd64.s); everywhere else the pure-Go loops below are used.
//
// The vector versions deliberately use separate multiply and add instructions
// (VMULPD + VADDPD), never fused multiply-add: each lane then performs exactly
// the two IEEE-754 operations of the scalar loop, in the same per-element
// order, so the results are bit-identical to the fallback on every input.
// That bit-identity is what lets the training and evaluation hot paths adopt
// the vector kernels without perturbing any committed experiment result.
//
// The Go loops of this package write every product that feeds an add as
// float64(a*x): the explicit conversion rounds the product, so
// a compiler targeting an architecture with FMA (arm64, ppc64le, s390x) may
// not fuse it into the add, and the fallback rounds twice like the assembly.
// It is a no-op on amd64. `make portable` checks the arm64 build for it.

// axpyMinLen is the row length below which the scalar loop wins (call
// overhead exceeds the vector speedup); the row kernels dispatch on the same
// bound.
const axpyMinLen = 8

// axpyF64Generic computes y[i] += alpha * x[i] for i in [0, len(x)).
func axpyF64Generic(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}
