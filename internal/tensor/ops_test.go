package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation used to validate the optimised
// paths.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulMismatchPanics(t *testing.T) {
	defer mustPanic(t, "MatMul mismatch")
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := RandNormal(rng, 7, 7, 1)
	if !MatMul(m, eye(7)).AllClose(m, 1e-12) || !MatMul(eye(7), m).AllClose(m, 1e-12) {
		t.Fatal("identity should be neutral")
	}
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(m8, n8, p8 uint8) bool {
		m, n, p := int(m8%12)+1, int(n8%12)+1, int(p8%12)+1
		a := RandNormal(rng, m, n, 1)
		b := RandNormal(rng, n, p, 1)
		return MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulLargeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandNormal(rng, 128, 80, 1)
	b := RandNormal(rng, 80, 96, 1)
	if !MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-8) {
		t.Fatal("large MatMul diverges from naive")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandNormal(rng, 9, 5, 1)
	b := RandNormal(rng, 9, 7, 1)
	if !MatMulTransA(a, b).AllClose(MatMul(transposed(a), b), 1e-10) {
		t.Fatal("MatMulTransA mismatch")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed uint8) bool {
		n := int(seed%6) + 2
		a := RandNormal(rng, n, n, 0.5)
		b := RandNormal(rng, n, n, 0.5)
		c := RandNormal(rng, n, n, 0.5)
		return MatMul(MatMul(a, b), c).AllClose(MatMul(a, MatMul(b, c)), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	out := New(2, 2)
	if AddInto(a, b, out); !out.Equal(FromSlice(2, 2, []float64{6, 8, 10, 12})) {
		t.Fatal("AddInto wrong")
	}
	if SubInto(b, a, out); !out.Equal(FromSlice(2, 2, []float64{4, 4, 4, 4})) {
		t.Fatal("SubInto wrong")
	}
	if MulInto(a, b, out); !out.Equal(FromSlice(2, 2, []float64{5, 12, 21, 32})) {
		t.Fatal("MulInto wrong")
	}
	if ScaleInto(a, 2, out); !out.Equal(FromSlice(2, 2, []float64{2, 4, 6, 8})) {
		t.Fatal("ScaleInto wrong")
	}
}

func TestAddInPlaceAndScaled(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 1, 1})
	AddInPlace(a, FromSlice(1, 3, []float64{1, 2, 3}))
	if !a.Equal(FromSlice(1, 3, []float64{2, 3, 4})) {
		t.Fatal("AddInPlace wrong")
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	v := FromSlice(1, 3, []float64{10, 20, 30})
	got := New(2, 3)
	AddRowVectorInto(a, v, got)
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if !got.Equal(want) {
		t.Fatalf("AddRowVector = %v", got)
	}
}

func TestApplySumDotNorm(t *testing.T) {
	a := FromSlice(1, 4, []float64{-1, 2, -3, 4})
	abs := New(1, 4)
	ApplyInto(a, math.Abs, abs)
	if Sum(abs) != 10 {
		t.Fatalf("Sum(|a|) = %v", Sum(abs))
	}
	if Dot(a, a) != 30 {
		t.Fatalf("Dot = %v", Dot(a, a))
	}
}

func TestMeanRows(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 3, 3, 5})
	mean := New(1, 2)
	if MeanRowsInto(a, mean); !mean.Equal(FromSlice(1, 2, []float64{2, 4})) {
		t.Fatal("MeanRows wrong")
	}
	empty := full(1, 3, 1)
	MeanRowsInto(New(0, 3), empty)
	if empty.Rows != 1 || empty.Cols != 3 || Sum(empty) != 0 {
		t.Fatal("MeanRows of empty should be zeros")
	}
}

func TestMaxRows(t *testing.T) {
	a := FromSlice(3, 2, []float64{1, 9, 7, 2, 7, 5})
	m, arg := New(1, 2), make([]int, 2)
	MaxRowsInto(a, m, arg)
	if !m.Equal(FromSlice(1, 2, []float64{7, 9})) {
		t.Fatalf("MaxRows values = %v", m)
	}
	if arg[0] != 1 || arg[1] != 0 {
		t.Fatalf("MaxRows argmax = %v (ties must pick smallest row)", arg)
	}
}

func TestGatherRows(t *testing.T) {
	a := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	g := New(3, 2)
	GatherRowsInto(a, []int{2, 0, 2}, g)
	want := FromSlice(3, 2, []float64{5, 6, 1, 2, 5, 6})
	if !g.Equal(want) {
		t.Fatalf("GatherRows = %v", g)
	}
}

func TestConcat(t *testing.T) {
	a := FromSlice(2, 1, []float64{1, 2})
	b := FromSlice(2, 2, []float64{3, 4, 5, 6})
	h := New(2, 3)
	if ConcatColsInto(a, b, h); !h.Equal(FromSlice(2, 3, []float64{1, 3, 4, 2, 5, 6})) {
		t.Fatalf("ConcatCols = %v", h)
	}
}

func TestDistributivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed uint8) bool {
		n := int(seed%5) + 2
		a := RandNormal(rng, n, n, 1)
		b := RandNormal(rng, n, n, 1)
		c := RandNormal(rng, n, n, 1)
		bc, right := New(n, n), New(n, n)
		AddInto(b, c, bc)
		left := MatMul(a, bc)
		AddInto(MatMul(a, b), MatMul(a, c), right)
		return left.AllClose(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransALargeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := RandNormal(rng, 80, 128, 1)
	b := RandNormal(rng, 80, 96, 1)
	if !MatMulTransA(a, b).AllClose(naiveMatMul(transposed(a), b), 1e-8) {
		t.Fatal("large MatMulTransA diverges from naive")
	}
}

// TestMatMulOfTransposeMatchesSequentialDots: a*bᵀ formed as MatMul(a, bᵀ) —
// how the tape takes an input gradient ∂C·Wᵀ — is, bit for bit, the plain dot
// product of a's row and b's row summed in ascending k from +0, zero terms
// included: the skipped ±0 terms are the identity (see matMulLoop). Output
// widths straddle the row kernel's bound and its block sizes.
func TestMatMulOfTransposeMatchesSequentialDots(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range [][3]int{{6, 9, 1}, {6, 9, 3}, {6, 9, 4}, {6, 9, 5}, {6, 9, 8}, {6, 9, 11}, {6, 9, 32}, {6, 9, 37}, {128, 80, 96}} {
		rows, k, outCols := sh[0], sh[1], sh[2]
		a, b := RandNormal(rng, rows, k, 1), RandNormal(rng, outCols, k, 1)
		a.Data[4], a.Data[5] = 0, math.Copysign(0, -1) // zero terms must cost no bit
		got := MatMul(a, transposed(b))
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Rows; j++ {
				var s float64
				for k := 0; k < a.Cols; k++ {
					s += float64(a.At(i, k) * b.At(j, k))
				}
				if math.Float64bits(got.At(i, j)) != math.Float64bits(s) {
					t.Fatalf("%dx%d*(%dx%d)ᵀ: out[%d,%d] = %v, sequential dot %v", rows, k, outCols, k, i, j, got.At(i, j), s)
				}
			}
		}
	}
}

// TestMatMulTransASegAccMatchesPerRangeProducts: the segmented accumulate
// leaves in acc the bits of one MatMulTransAInto + AddInPlace per row range,
// in order, and ColSumsSegAcc those of one AddInPlace of the range's row sum,
// each summed from +0 in row order — at output widths on and below the row
// kernel's bound. An empty range adds +0, and a nil table is the one range of
// all rows.
func TestMatMulTransASegAccMatchesPerRangeProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, rows := range []int{9, 2100} {
		for _, p := range []int{1, 5, 16, 37} {
			a, b := RandNormal(rng, rows, 16, 1), RandNormal(rng, rows, p, 1)
			segs := []int{0, 4, 4, rows - 2, rows}
			for _, table := range [][]int{segs, nil} {
				want := RandNormal(rng, 16, p, 1) // a non-zero accumulator to add onto
				want.Data[0] = math.Copysign(0, -1)
				acc := FromSlice(16, p, append([]float64(nil), want.Data...))
				wantSums := RandNormal(rng, 1, p, 1)
				wantSums.Data[0] = math.Copysign(0, -1)
				sums := FromSlice(1, p, append([]float64(nil), wantSums.Data...))
				for s := 0; s < SegmentCount(table); s++ {
					lo, hi := SegmentBounds(table, s, rows)
					part := New(16, p)
					bs := FromSlice(hi-lo, p, b.Data[lo*p:hi*p])
					MatMulTransAInto(FromSlice(hi-lo, 16, a.Data[lo*16:hi*16]), bs, part)
					AddInPlace(want, part)
					colSum := New(1, p)
					for i := 0; i < bs.Rows; i++ {
						AddInPlace(colSum, FromSlice(1, p, bs.Row(i)))
					}
					AddInPlace(wantSums, colSum)
				}
				ctx := fmt.Sprintf("rows=%d p=%d table=%v", rows, p, table)
				MatMulTransASegAcc(a, b, table, acc)
				mustSameBits(t, ctx+": MatMulTransASegAcc", acc, want)
				ColSumsSegAcc(b, table, sums)
				mustSameBits(t, ctx+": ColSumsSegAcc", sums, wantSums)
			}
		}
	}
}
