//go:build !amd64

package tensor

// Non-amd64 platforms use the portable loops. They match the amd64 assembly
// bit for bit only because every product in them is rounded before its add
// (see axpy.go); left alone, the compiler fuses y += a*x wherever the target
// has FMA.

const hasAVX2 = false

// The row kernels are reached only behind hasAVX2.
func denseRowAVX2(out, a []float64, stride, k int, b, bias []float64) { panic("tensor: no AVX2") }
func csrRowAVX2(out, val []float64, col []int, d []float64)           { panic("tensor: no AVX2") }

func axpyF64(alpha float64, x, y []float64) { axpyF64Generic(alpha, x, y) }
