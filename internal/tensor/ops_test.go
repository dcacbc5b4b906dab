package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation used to validate the optimised
// and parallel paths.
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

func TestMatMulParallelPathMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Sized to exceed parallelThreshold so the goroutine pool is exercised.
	a := RandNormal(rng, 128, 80, 1)
	b := RandNormal(rng, 80, 96, 1)
	if !MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-8) {
		t.Fatal("parallel MatMul diverges from naive")
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

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := RandNormal(rng, 128, 128, 1)
	y := RandNormal(rng, 128, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

// BenchmarkSpMM times one GCN propagation on the normalised adjacency
// D^-1/2 (A+I) D^-1/2 of a factorisation-shaped DAG (a chain with skip-7
// edges, taken symmetrically) at hidden 64: CSR SpMMInto against dense
// MatMulInto on the same operator.
func BenchmarkSpMM(b *testing.B) {
	const hidden = 64
	for _, n := range []int{128, 256} {
		rows := make([][]SparseEntry, n)
		for i := range rows {
			for _, j := range []int{i - 7, i - 1, i, i + 1, i + 7} {
				if j >= 0 && j < n {
					rows[i] = append(rows[i], SparseEntry{Col: j})
				}
			}
		}
		for _, row := range rows {
			for k := range row {
				row[k].Val = 1 / math.Sqrt(float64(len(row)*len(rows[row[k].Col])))
			}
		}
		sp := SparseFromRows(n, n, rows)
		dn := sp.Dense()
		x := RandNormal(rand.New(rand.NewSource(1)), n, hidden, 1)
		out := New(n, hidden)
		b.Run(fmt.Sprintf("sparse/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SpMMInto(sp, x, out)
			}
		})
		b.Run(fmt.Sprintf("dense/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(dn, x, out)
			}
		})
	}
}

// BenchmarkDenseLayer times one dense layer, ReLU(x*W + b), at the shapes the
// committed checkpoints run at 49 window rows (22 features → hidden 32, hidden
// 32 → 32) and at DefaultConfig's hidden 64, three ways: the zero-fill +
// axpy-per-k loop followed by a bias pass and a ReLU pass (the layer before
// the row kernel), the row kernel followed by the same two passes, and the row
// kernel finishing the row in registers (LinearReLUInto). Hidden inputs are
// post-ReLU, about half zeros, as in a forward.
func BenchmarkDenseLayer(b *testing.B) {
	if !hasAVX2 {
		b.Skip("hasAVX2=false: all three are the loop")
	}
	for _, sh := range [][3]int{{49, 22, 32}, {49, 32, 32}, {49, 64, 64}} {
		rows, k, cols := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(1))
		x, w, bias := RandNormal(rng, rows, k, 1), RandNormal(rng, k, cols, 0.3), RandNormal(rng, 1, cols, 0.1)
		if k == cols {
			relu(x)
		}
		out := New(rows, cols)
		shape := fmt.Sprintf("%dx%d*%dx%d", rows, k, k, cols)
		b.Run("axpy-loop/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matMulLoop(x, w, out, 0, rows)
				biasReLU(out, bias)
			}
		})
		b.Run("row-kernel/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulInto(x, w, out)
				biasReLU(out, bias)
			}
		})
		b.Run("row-kernel+epilogue/"+shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LinearReLUInto(x, w, bias, out)
			}
		})
	}
}

func TestMatMulTransAParallelPathMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Work = a.Cols * b.Cols * a.Rows above parallelThreshold.
	a := RandNormal(rng, 80, 128, 1)
	b := RandNormal(rng, 80, 96, 1)
	if !MatMulTransA(a, b).AllClose(naiveMatMul(transposed(a), b), 1e-8) {
		t.Fatal("parallel MatMulTransA diverges from naive")
	}
}

// TestParallelOpsBitIdenticalAcrossWorkerCounts pins the determinism contract
// of the parallel kernels, every job kind of parallelRows: each output element
// is produced by exactly one goroutine with the same ascending-k accumulation
// order, so changing GOMAXPROCS must not change a single bit.
func TestParallelOpsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := RandNormal(rng, 128, 96, 1)
	b := RandNormal(rng, 96, 112, 1)
	s := SparseFromDense(randomDAGDense(rng, 192, 0.4))
	x := RandNormal(rng, 192, 64, 1)

	d := RandNormal(rng, 128, 112, 1)
	bias := RandNormal(rng, 1, 112, 1)
	lr1, lr4 := New(128, 112), New(128, 112)
	segs := []int{0, 50, 50, 128}
	acc1, acc4 := RandNormal(rng, 96, 112, 1), New(96, 112)
	copy(acc4.Data, acc1.Data)
	sp4 := RandNormal(rng, 192, 64, 1) // a dirty destination

	prev := runtime.GOMAXPROCS(1)
	LinearReLUInto(a, b, bias, lr1)
	mm1 := MatMul(a, b)
	ta1 := MatMulTransA(a, d)
	MatMulTransASegAcc(a, d, segs, New(96, 112), acc1)
	sp1 := SpMM(s, x)
	runtime.GOMAXPROCS(4)
	LinearReLUInto(a, b, bias, lr4)
	mm4 := MatMul(a, b)
	ta4 := MatMulTransA(a, d)
	MatMulTransASegAcc(a, d, segs, RandNormal(rng, 96, 112, 1), acc4)
	SpMMInto(s, x, sp4)
	runtime.GOMAXPROCS(prev)

	for _, c := range []struct {
		kind     string
		one, on4 *Matrix
	}{{"dense", mm1, mm4}, {"LinearReLU", lr1, lr4}, {"TransA", ta1, ta4}, {"TransASegAcc", acc1, acc4}, {"SpMM", sp1, sp4}} {
		mustSameBits(t, c.kind+" at GOMAXPROCS 4 vs 1", c.on4, c.one)
	}
	biasReLU(mm1, bias)
	mustSameBits(t, "parallel LinearReLUInto", lr4, mm1)
}

// TestMatMulOfTransposeMatchesSequentialDots: a*bᵀ formed as MatMul(a, bᵀ) —
// how the tape takes an input gradient ∂C·Wᵀ — is, bit for bit, the plain dot
// product of a's row and b's row summed in ascending k from +0, zero terms
// included: the skipped ±0 terms are the identity (see matMulLoop). Output
// widths straddle the row kernel's bound and its block sizes; the last shape
// crosses parallelThreshold.
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
// in order, on the serial and on the row-parallel path, and a nil table is
// the one range of all rows.
func TestMatMulTransASegAccMatchesPerRangeProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, rows := range []int{9, 2100} { // 2100*16*16 crosses parallelThreshold
		a, b := RandNormal(rng, rows, 16, 1), RandNormal(rng, rows, 16, 1)
		segs := []int{0, 4, 4, rows - 2, rows}
		for _, table := range [][]int{segs, nil} {
			want := RandNormal(rng, 16, 16, 1) // a non-zero accumulator to add onto
			acc := want.Clone()
			for s := 0; s < SegmentCount(table); s++ {
				lo, hi := SegmentBounds(table, s, rows)
				part := New(16, 16)
				MatMulTransAInto(FromSlice(hi-lo, 16, a.Data[lo*16:hi*16]), FromSlice(hi-lo, 16, b.Data[lo*16:hi*16]), part)
				AddInPlace(want, part)
			}
			MatMulTransASegAcc(a, b, table, New(16, 16), acc)
			if !acc.Equal(want) {
				t.Fatalf("rows=%d table=%v: segmented accumulate diverges from per-range products", rows, table)
			}
		}
	}
}
