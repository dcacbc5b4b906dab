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
					denseRowAVX2(got.Row(i), a.Data[i*k:], 1, k, b.Data, nil, nil, false)
				}
				mustSameBits(t, "denseRowAVX2", got, want)
				got = dirty(rows, cols)
				MatMulInto(a, b, got)
				mustSameBits(t, "MatMulInto", got, want)

				// With the epilogue.
				biasReLU(want, bias)
				got = dirty(rows, cols)
				for i := 0; i < rows; i++ {
					denseRowAVX2(got.Row(i), a.Data[i*k:], 1, k, b.Data, bias.Data, nil, false)
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
					denseRowAVX2(got.Row(i), a.Data[klo*rows+i:], rows, k, b.Data[klo*cols:], nil, nil, false)
				}
				mustSameBits(t, "denseRowAVX2 strided", got, want)

				acc := kernelMatrix(rng, rows, cols)
				wantAcc := FromSlice(rows, cols, append([]float64(nil), acc.Data...))
				AddInPlace(wantAcc, want)
				loopAcc := FromSlice(rows, cols, append([]float64(nil), acc.Data...))
				segAccLoop(a.Data, rows, b, []int{klo, khi}, loopAcc)
				mustSameBits(t, "segAccLoop", loopAcc, wantAcc)
				for i := 0; i < rows; i++ {
					denseRowAVX2(acc.Row(i), a.Data[klo*rows+i:], rows, k, b.Data[klo*cols:], nil, nil, true)
				}
				mustSameBits(t, "denseRowAVX2 accumulate", acc, wantAcc)

				sums := kernelMatrix(rng, 1, cols)
				loopSums := FromSlice(1, cols, append([]float64(nil), sums.Data...))
				segAccLoop(one[:], 0, b, []int{klo, khi}, loopSums)
				denseRowAVX2(sums.Data, one[:], 0, k, b.Data[klo*cols:], nil, nil, true)
				mustSameBits(t, "denseRowAVX2 stride 0", sums, loopSums)
			}
		}
	}
}

// CSR rows with 0, 1 and many stored entries, stored zeros and repeated
// columns included: the kernel gathers by Col and skips nothing, like the
// loop. The Sparse is assembled by hand, repeats and stored zeros included.
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
				LinearReLUInto(x, w, bias, got, nil)
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
		denseRowAVX2(got.Data, a.Data, 1, 3, b.Data, nil, nil, false)
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

// The ReLU mask the row kernel writes is, bit for bit, the one the Go pass
// writes from the finished entries (reluMaskLoop, the path of narrow rows and
// of hosts without AVX2), and each bit says whether its entry is > 0. It runs
// over every column block/tail combination into a mask full of stale ones, so
// a word the kernel fails to write in full, or a bit past the last column it
// leaves set, shows. Row 0 of x is zero, so its pre-activations are the bias
// alone; row 1 is the first unit vector, so its are w's first row plus the
// bias. Between them they reach what the mask must tell apart: +0 from a +0
// and from a −0 bias (the nearest the kernel comes to a −0 pre-activation,
// which a sum from +0 never is), NaN, ±Inf, subnormals of both signs,
// negatives and positives.
func TestReLUMaskKernelMatchesLoop(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(29))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 1e-310, -1e-310, -1, 1}
	special := func() float64 {
		if rng.Intn(3) == 0 {
			return kernelValue(rng)
		}
		return specials[rng.Intn(len(specials))]
	}
	for _, rows := range kernelRows {
		for _, k := range kernelKs {
			for cols := 1; cols <= kernelMaxCols; cols++ {
				x, w := kernelMatrix(rng, rows, k), kernelMatrix(rng, k, cols)
				bias := kernelMatrix(rng, 1, cols)
				for j := range bias.Data {
					bias.Data[j] = special()
				}
				clear(x.Row(0))
				if rows > 1 && k > 0 {
					clear(x.Row(1))
					x.Data[k] = 1
					for j := range w.Row(0) {
						w.Data[j] = special()
					}
				}
				n := ReLUMaskLen(rows, cols)
				stale := func() []uint32 {
					m := make([]uint32, n)
					for i := range m {
						m[i] = ^uint32(0)
					}
					return m
				}

				want, wantMask := dirty(rows, cols), stale()
				matMulLoop(x, w, want)
				AddRowVectorInto(want, bias, want)
				reluMaskLoop(want, wantMask)
				stride := maskStride(cols)
				for i := 0; i < rows; i++ {
					for j := 0; j < 32*stride; j++ {
						bit := wantMask[i*stride+j/32] >> (j % 32) & 1
						if pos := j < cols && want.At(i, j) > 0; bit != 0 != pos {
							t.Fatalf("k=%d %dx%d: the Go pass's bit (%d,%d) is %d over an entry %g", k, rows, cols, i, j, bit, want.Data[min(i*cols+j, len(want.Data)-1)])
						}
					}
				}

				got, gotMask := dirty(rows, cols), stale()
				for i := 0; i < rows; i++ {
					denseRowAVX2(got.Row(i), x.Data[i*k:], 1, k, w.Data, bias.Data, gotMask[i*stride:], false)
				}
				mustSameBits(t, "denseRowAVX2+bias+mask", got, want)
				mustSameMask(t, "denseRowAVX2", k, rows, cols, gotMask, wantMask)

				got, gotMask = dirty(rows, cols), stale()
				LinearReLUInto(x, w, bias, got, gotMask)
				mustSameBits(t, "LinearReLUInto+mask", got, want)
				mustSameMask(t, "LinearReLUInto", k, rows, cols, gotMask, wantMask)
			}
		}
	}
}

func mustSameMask(t *testing.T, what string, k, rows, cols int, got, want []uint32) {
	t.Helper()
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("%s k=%d %dx%d: mask word %d (row %d) is %032b, want %032b", what, k, rows, cols, i, i/maskStride(cols), got[i], w)
		}
	}
}

// ApplyReLUMask keeps an entry's bits where its mask bit is set — −0, NaN,
// Inf and subnormals included — and leaves +0 where it is clear, on the
// vector kernel (widths 32 and 64) and the Go loop alike, and every row's
// word through the Go loop on its own.
func TestApplyReLUMask(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, rows := range kernelRows {
		for cols := 1; cols <= kernelMaxCols; cols++ {
			m := kernelMatrix(rng, rows, cols)
			m.Data[0], m.Data[len(m.Data)-1] = math.NaN(), math.Copysign(0, -1)
			m.Data[rng.Intn(len(m.Data))] = math.Inf(-1)
			mask := make([]uint32, ReLUMaskLen(rows, cols))
			for i := range mask {
				mask[i] = rng.Uint32()
			}
			mask[0] |= 1
			mask[len(mask)-1] |= 1 << ((cols - 1) % 32)
			stride := maskStride(cols)
			want := dirty(rows, cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					want.Set(i, j, 0)
					if mask[i*stride+j/32]>>(j%32)&1 != 0 {
						want.Set(i, j, m.At(i, j))
					}
				}
			}
			got := FromSlice(rows, cols, append([]float64(nil), m.Data...))
			ApplyReLUMask(got, mask)
			mustSameBits(t, "ApplyReLUMask", got, want)
			got = FromSlice(rows, cols, append([]float64(nil), m.Data...))
			for i := 0; i < rows; i++ {
				andMaskLoop(got.Row(i), mask[i*stride:(i+1)*stride])
			}
			mustSameBits(t, "andMaskLoop", got, want)
		}
	}
}
