package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The row kernels replace the zero-fill + axpy-per-k loops under MatMul,
// MatMulTransASegAcc and SpMM, and every committed result rests on those
// loops' bits. These tests hold each assembly entry point, and the dispatcher above
// it, to the loop it replaced on math.Float64bits, over every column
// block/tail combination (32-, 4- and 1-wide) and the values where a fused,
// reordered or non-skipping implementation would differ.

var (
	kernelRows = []int{1, 2, 3, 4, 5}
	kernelKs   = []int{0, 1, 7, 22, 32, 33}
)

const kernelMaxCols = 70

// kernelValue draws from a palette of exact zeros of both signs, subnormals,
// values whose products underflow or round (where one rounding differs from
// two), and ordinary mixed-sign normals. Everything stays finite.
func kernelValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0, 1:
		return 0
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return math.Copysign(5e-324, float64(rng.Intn(2)*2-1))
	case 4:
		return rng.NormFloat64() * 1e-310
	case 5:
		return rng.NormFloat64() * 1e-160
	case 6:
		return rng.NormFloat64() * 1e100
	default:
		return rng.NormFloat64()
	}
}

func kernelMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = kernelValue(rng)
	}
	return m
}

// dirty returns a destination full of a value no product leaves behind, so a
// column the kernel fails to store shows.
func dirty(rows, cols int) *Matrix { return full(rows, cols, math.Float64frombits(0x7ff8dead0000beef)) }

func mustSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]); g != w {
			t.Fatalf("%s: element (%d,%d) of %dx%d: got %016x (%g) want %016x (%g)",
				what, i/want.Cols, i%want.Cols, want.Rows, want.Cols, g, got.Data[i], w, want.Data[i])
		}
	}
}

func skipWithoutAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("hasAVX2=false: the row kernels are unreachable, the loops are the only path")
	}
}

// relu is the ReLU pass `v > 0 ? v : 0`, in place.
func relu(m *Matrix) {
	for i, v := range m.Data {
		if !(v > 0) {
			m.Data[i] = 0
		}
	}
}

// biasReLU is AddRowVectorInto followed by the ReLU pass, in place.
func biasReLU(m, bias *Matrix) {
	AddRowVectorInto(m, bias, m)
	relu(m)
}

func TestDenseRowKernelMatchesLoop(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(24))
	for _, rows := range kernelRows {
		for _, k := range kernelKs {
			for cols := 1; cols <= kernelMaxCols; cols++ {
				a, b := kernelMatrix(rng, rows, k), kernelMatrix(rng, k, cols)
				bias := kernelMatrix(rng, 1, cols)
				want := dirty(rows, cols)
				matMulLoop(a, b, want)

				// The entry point itself, below axpyMinLen too.
				got := dirty(rows, cols)
				for i := 0; i < rows; i++ {
					denseRowAVX2(got.Row(i), a.Data[i*k:], 1, k, b.Data, nil, false)
				}
				mustSameBits(t, "denseRowAVX2", got, want)
				got = dirty(rows, cols)
				MatMulInto(a, b, got)
				mustSameBits(t, "MatMulInto", got, want)

				// With the epilogue.
				biasReLU(want, bias)
				got = dirty(rows, cols)
				for i := 0; i < rows; i++ {
					denseRowAVX2(got.Row(i), a.Data[i*k:], 1, k, b.Data, bias.Data, false)
				}
				mustSameBits(t, "denseRowAVX2+bias", got, want)
			}
		}
	}
}

// Stride > 1 over a klo..khi sub-range, with and without the accumulate
// epilogue, and stride 0: the shapes MatMulTransASegAcc and ColSumsSegAcc ask
// for, against MatMulTransAInto's loop. a is k+3 rows tall and the product runs over rows
// 2 ≤ r < 2+k of a and b. The epilogue must leave what the loop's per-range
// sum added to the accumulator leaves, and that must be the product formed
// from +0 in full and then added in.
func TestDenseRowKernelStridedMatchesLoop(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(25))
	for _, rows := range kernelRows { // output rows = columns of a
		for _, k := range kernelKs {
			for cols := 1; cols <= kernelMaxCols; cols++ {
				const klo = 2
				khi := klo + k
				a, b := kernelMatrix(rng, k+3, rows), kernelMatrix(rng, k+3, cols)
				sub := func(m *Matrix) *Matrix { return FromSlice(k, m.Cols, m.Data[klo*m.Cols:khi*m.Cols]) }
				want := dirty(rows, cols)
				MatMulTransAInto(sub(a), sub(b), want)

				got := dirty(rows, cols)
				for i := 0; i < rows; i++ {
					denseRowAVX2(got.Row(i), a.Data[klo*rows+i:], rows, k, b.Data[klo*cols:], nil, false)
				}
				mustSameBits(t, "denseRowAVX2 strided", got, want)

				acc := kernelMatrix(rng, rows, cols)
				wantAcc := FromSlice(rows, cols, append([]float64(nil), acc.Data...))
				AddInPlace(wantAcc, want)
				loopAcc := FromSlice(rows, cols, append([]float64(nil), acc.Data...))
				segAccLoop(a.Data, rows, b, []int{klo, khi}, loopAcc)
				mustSameBits(t, "segAccLoop", loopAcc, wantAcc)
				for i := 0; i < rows; i++ {
					denseRowAVX2(acc.Row(i), a.Data[klo*rows+i:], rows, k, b.Data[klo*cols:], nil, true)
				}
				mustSameBits(t, "denseRowAVX2 accumulate", acc, wantAcc)

				sums := kernelMatrix(rng, 1, cols)
				loopSums := FromSlice(1, cols, append([]float64(nil), sums.Data...))
				segAccLoop(one[:], 0, b, []int{klo, khi}, loopSums)
				denseRowAVX2(sums.Data, one[:], 0, k, b.Data[klo*cols:], nil, true)
				mustSameBits(t, "denseRowAVX2 stride 0", sums, loopSums)
			}
		}
	}
}

// CSR rows with 0, 1 and many stored entries, stored zeros and repeated
// columns included: the kernel gathers by Col and skips nothing, like the
// loop. The Sparse is assembled by hand — SparseFromRows would merge the repeats.
func TestCSRRowKernelMatchesLoop(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(26))
	const dRows = 9
	for cols := 1; cols <= kernelMaxCols; cols++ {
		s := &Sparse{Rows: 0, Cols: dRows, RowPtr: []int{0}}
		for _, nnz := range []int{0, 1, 2, 5, 0, 13, 33, 1} {
			for e := 0; e < nnz; e++ {
				s.Col = append(s.Col, rng.Intn(dRows))
				s.Val = append(s.Val, kernelValue(rng))
			}
			s.Rows++
			s.RowPtr = append(s.RowPtr, len(s.Col))
		}
		d := kernelMatrix(rng, dRows, cols)
		want := dirty(s.Rows, cols)
		spMMLoop(s, d, want)

		got := dirty(s.Rows, cols)
		for i := 0; i < s.Rows; i++ {
			lo, hi := s.RowPtr[i], s.RowPtr[i+1]
			csrRowAVX2(got.Row(i), s.Val[lo:hi], s.Col[lo:hi], d.Data)
		}
		mustSameBits(t, "csrRowAVX2", got, want)
		got = dirty(s.Rows, cols)
		SpMMInto(s, d, got)
		mustSameBits(t, "SpMMInto", got, want)
	}
}

// LinearReLUInto is MatMulInto + AddRowVectorInto + `v > 0 ? v : 0`, on the
// kernel path (cols ≥ axpyMinLen) and below it. A pre-activation of -0 needs
// both the sum and the bias to be -0, and a sum that starts at +0 never is;
// the nearest reachable cases — an all-zero row under a -0 bias, a sum the
// bias cancels exactly, a subnormal negative — must all leave +0.
func TestLinearReLUMatchesThreeOps(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(27))
	for _, rows := range kernelRows {
		for _, k := range kernelKs {
			for cols := 1; cols <= kernelMaxCols; cols++ {
				x, w := kernelMatrix(rng, rows, k), kernelMatrix(rng, k, cols)
				bias := kernelMatrix(rng, 1, cols)
				for j := 0; j < k; j++ {
					x.Data[j] = 0 // row 0 sums to +0
				}
				want := dirty(rows, cols)
				matMulLoop(x, w, want)
				bias.Data[0] = math.Copysign(0, -1)
				if cols > 1 {
					bias.Data[1] = -want.Data[(rows-1)*cols+1] // exact cancellation in the last row
				}
				if cols > 2 {
					bias.Data[2] = -5e-324
				}
				biasReLU(want, bias)
				got := dirty(rows, cols)
				LinearReLUInto(x, w, bias, got)
				mustSameBits(t, "LinearReLUInto", got, want)
				for _, j := range []int{0, 2} {
					if j < cols && math.Float64bits(got.Data[j]) != 0 {
						t.Fatalf("k=%d cols=%d: zero row under bias %g left %016x, want +0",
							k, cols, bias.Data[j], math.Float64bits(got.Data[j]))
					}
				}
				if cols > 1 && math.Float64bits(got.Data[(rows-1)*cols+1]) != 0 {
					t.Fatalf("k=%d cols=%d: cancelled sum left %016x, want +0", k, cols, math.Float64bits(got.Data[(rows-1)*cols+1]))
				}
			}
		}
	}
}

// With finite operands a skipped ±0 term and an added one leave the same bits,
// so the skip itself only shows against a non-finite b row: the loops never
// touch it, and neither may the kernel. (The CSR loop skips nothing, so a
// stored zero against Inf is NaN on both sides.)
func TestRowKernelSkipsZeroTerms(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(28))
	for cols := 1; cols <= kernelMaxCols; cols++ {
		a := FromSlice(1, 3, []float64{0, math.Copysign(0, -1), 1.5})
		b := kernelMatrix(rng, 3, cols)
		for j := 0; j < cols; j++ {
			b.Data[j], b.Data[cols+j] = math.Inf(1), math.NaN()
		}
		want, got := dirty(1, cols), dirty(1, cols)
		matMulLoop(a, b, want)
		denseRowAVX2(got.Data, a.Data, 1, 3, b.Data, nil, false)
		mustSameBits(t, "denseRowAVX2 zero skip", got, want)
		for j, v := range got.Data {
			if v != 1.5*b.Data[2*cols+j] {
				t.Fatalf("cols=%d: out[%d] = %g, want %g", cols, j, v, 1.5*b.Data[2*cols+j])
			}
		}

		s := &Sparse{Rows: 1, Cols: 3, RowPtr: []int{0, 2}, Col: []int{0, 2}, Val: []float64{0, 1.5}}
		spMMLoop(s, b, want)
		csrRowAVX2(got.Data, s.Val, s.Col, b.Data)
		mustSameBits(t, "csrRowAVX2 stored zero", got, want)
	}
}
