package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// parallelThreshold is the number of multiply-adds below which the matrix
// products stay single-threaded; spawning goroutines for tiny products costs
// more than the product itself.
const parallelThreshold = 64 * 64 * 64

// parallelRows splits [0, rows) into one contiguous block per worker and runs
// fn on each block concurrently. Each output row is written by exactly one
// goroutine with the same inner-loop order as the serial path, so results are
// bit-identical regardless of the split.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		// One worker gains nothing from a goroutine hop; run inline. The
		// split never changes results, only who computes which rows (see
		// TestParallelOpsBitIdenticalAcrossWorkerCounts).
		fn(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMul returns a*b. It panics if the inner dimensions disagree.
// Large products are split across row blocks and computed by a pool of
// goroutines sized to GOMAXPROCS.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(a, b, out)
	return out
}

// MatMulInto computes out = a*b into a caller-supplied (zeroed or dirty)
// destination.
func MatMulInto(a, b, out *Matrix) {
	mustMatMul(a, b, out)
	if a.Rows*a.Cols*b.Cols < parallelThreshold || a.Rows < 2 {
		matMulRange(a, b, nil, out, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulRange(a, b, nil, out, lo, hi) })
}

// LinearReLUInto computes out = ReLU(x*w + bias), a dense layer. It is
// MatMulInto, AddRowVectorInto and `v > 0 ? v : 0` with the same bits: on AVX2
// hosts the row kernel applies bias and ReLU to the finished row before it
// stores it, elsewhere the three passes run one after the other. The kernel
// path splits rows as MatMulInto does, in a closure of its own: capturing a
// bias in MatMulInto's would grow what every large product allocates.
func LinearReLUInto(x, w, bias, out *Matrix) {
	if bias.Rows != 1 || bias.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: LinearReLU bias wants 1x%d, got %dx%d", w.Cols, bias.Rows, bias.Cols))
	}
	if !useRowKernel(w.Cols) {
		MatMulInto(x, w, out)
		AddRowVectorInto(out, bias, out)
		for i, v := range out.Data {
			if !(v > 0) {
				out.Data[i] = 0
			}
		}
		return
	}
	mustMatMul(x, w, out)
	if x.Rows*x.Cols*w.Cols < parallelThreshold || x.Rows < 2 {
		matMulRange(x, w, bias.Data, out, 0, x.Rows)
		return
	}
	parallelRows(x.Rows, func(lo, hi int) { matMulRange(x, w, bias.Data, out, lo, hi) })
}

func mustMatMul(a, b, out *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMul destination", out, a.Rows, b.Cols)
}

// useRowKernel reports whether products with this many output columns run on
// the AVX2 row kernels — the bound axpyF64 dispatches on.
func useRowKernel(cols int) bool { return hasAVX2 && cols >= axpyMinLen }

// matMulRange computes rows [lo, hi) of out = a*b, one row-kernel call per row
// where useRowKernel (see denseRowAVX2: the output row stays in registers for
// the whole k loop, and a non-nil bias finishes it as max(row+bias, +0)).
func matMulRange(a, b *Matrix, bias []float64, out *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	if !useRowKernel(p) {
		matMulLoop(a, b, out, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		denseRowAVX2(out.Data[i*p:(i+1)*p], a.Data[i*n:], 1, n, b.Data, bias)
	}
}

// matMulLoop is matMulRange without the row kernel: the path of hosts without
// AVX2 and of narrow outputs, and the oracle the kernel is tested against. The
// ikj loop order streams the inner loop through contiguous rows of b and out.
// Terms with av == 0 are skipped: since every accumulator starts at +0, a
// partial sum can never be -0 under round-to-nearest, so adding av*brow[j]
// (which is ±0 when av is ±0 and bv finite) is the identity and skipping it is
// bit-exact. Non-finite b values never occur here (features, weights, and
// activations are all finite), and the axpy kernel matches the scalar loop bit
// for bit.
func matMulLoop(a, b, out *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*n : (i+1)*n]
		orow := out.Data[i*p : (i+1)*p]
		for j := range orow {
			orow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			axpyF64(av, b.Data[k*p:(k+1)*p], orow)
		}
	}
}

// MatMulTransA returns aᵀ*b without materialising the transpose.
func MatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAInto(a, b, out)
	return out
}

// MatMulTransAInto computes out = aᵀ*b into a caller-supplied destination.
// Large products are split across blocks of output rows (columns of a) like
// MatMul; per-element accumulation runs over k in ascending order on every
// path, so the result is bit-identical at any parallelism level.
func MatMulTransAInto(a, b, out *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %dx%d ᵀ* %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulTransA destination", out, a.Cols, b.Cols)
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold || a.Cols < 2 {
		matMulTransARange(a, b, out, 0, a.Cols, 0, a.Rows)
		return
	}
	parallelRows(a.Cols, func(lo, hi int) { matMulTransARange(a, b, out, lo, hi, 0, a.Rows) })
}

// matMulTransARange computes output rows [lo, hi) of out = a[klo:khi]ᵀ *
// b[klo:khi]: output row i is Σ_k a[k,i]·b[k,:] over the rows klo ≤ k < khi —
// column i of a walked at stride a.Cols by the row kernel where useRowKernel.
func matMulTransARange(a, b, out *Matrix, lo, hi, klo, khi int) {
	n, p := a.Cols, b.Cols
	if !useRowKernel(p) || klo >= khi {
		matMulTransALoop(a, b, out, lo, hi, klo, khi)
		return
	}
	for i := lo; i < hi; i++ {
		denseRowAVX2(out.Data[i*p:(i+1)*p], a.Data[klo*n+i:], n, khi-klo, b.Data[klo*p:], nil)
	}
}

// matMulTransALoop is matMulTransARange without the row kernel (see
// matMulLoop).
func matMulTransALoop(a, b, out *Matrix, lo, hi, klo, khi int) {
	n, p := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		orow := out.Data[i*p : (i+1)*p]
		for j := range orow {
			orow[j] = 0
		}
		for k := klo; k < khi; k++ {
			av := a.Data[k*n+i]
			if av == 0 {
				continue // bit-exact: see matMulLoop
			}
			axpyF64(av, b.Data[k*p:(k+1)*p], orow)
		}
	}
}

// A segment table splits the rows of a stacked matrix into consecutive
// ranges, CSR-style: range s is rows segs[s] ≤ r < segs[s+1]. A nil table is
// the one range of all rows, so an unstacked matrix needs no table.

// SegmentCount returns the number of ranges in a segment table.
func SegmentCount(segs []int) int {
	if segs == nil {
		return 1
	}
	return len(segs) - 1
}

// SegmentBounds returns range s of a segment table over a matrix of the given
// row count.
func SegmentBounds(segs []int, s, rows int) (lo, hi int) {
	if segs == nil {
		return 0, rows
	}
	return segs[s], segs[s+1]
}

// MatMulTransASegAcc adds a[seg]ᵀ*b[seg] to acc for every row range of segs,
// in order. Each range's product is formed from zero in scratch (same shape
// as acc) before it is added, so acc ends with exactly the bits that one
// MatMulTransAInto + AddInPlace per range would leave — the association a
// sum of per-sample gradients has when the samples are processed one by one.
// Blocks of output rows run in parallel for large products; an output element
// sees the same operations in the same order on every path.
func MatMulTransASegAcc(a, b *Matrix, segs []int, scratch, acc *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransASegAcc shape mismatch %dx%d ᵀ* %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulTransASegAcc scratch", scratch, a.Cols, b.Cols)
	mustShape("MatMulTransASegAcc accumulator", acc, a.Cols, b.Cols)
	p := b.Cols
	block := func(lo, hi int) {
		for s := 0; s < SegmentCount(segs); s++ {
			klo, khi := SegmentBounds(segs, s, a.Rows)
			matMulTransARange(a, b, scratch, lo, hi, klo, khi)
			for i, v := range scratch.Data[lo*p : hi*p] {
				acc.Data[lo*p+i] += v
			}
		}
	}
	if a.Rows*a.Cols*b.Cols < parallelThreshold || a.Cols < 2 {
		block(0, a.Cols)
		return
	}
	parallelRows(a.Cols, block)
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	AddInto(a, b, out)
	return out
}

// AddInto computes out = a+b.
func AddInto(a, b, out *Matrix) {
	mustSameShape("Add", a, b)
	mustShape("Add destination", out, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
}

// Sub returns a-b elementwise.
func Sub(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	SubInto(a, b, out)
	return out
}

// SubInto computes out = a-b.
func SubInto(a, b, out *Matrix) {
	mustSameShape("Sub", a, b)
	mustShape("Sub destination", out, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
}

// Mul returns the elementwise (Hadamard) product a⊙b.
func Mul(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	MulInto(a, b, out)
	return out
}

// MulInto computes out = a⊙b.
func MulInto(a, b, out *Matrix) {
	mustSameShape("Mul", a, b)
	mustShape("Mul destination", out, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
}

// Scale returns s*a.
func Scale(a *Matrix, s float64) *Matrix {
	out := New(a.Rows, a.Cols)
	ScaleInto(a, s, out)
	return out
}

// ScaleInto computes out = s*a.
func ScaleInto(a *Matrix, s float64, out *Matrix) {
	mustShape("Scale destination", out, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * s
	}
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Matrix) {
	mustSameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// AddScaledInPlace accumulates s*b into a.
func AddScaledInPlace(a *Matrix, b *Matrix, s float64) {
	mustSameShape("AddScaledInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += float64(s * v)
	}
}

// AddRowVector returns a matrix whose every row is the corresponding row of a
// plus the 1 x Cols row vector v (bias broadcast).
func AddRowVector(a, v *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	AddRowVectorInto(a, v, out)
	return out
}

// AddRowVectorInto computes the bias broadcast into out.
func AddRowVectorInto(a, v, out *Matrix) {
	if v.Rows != 1 || v.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector wants 1x%d, got %dx%d", a.Cols, v.Rows, v.Cols))
	}
	mustShape("AddRowVector destination", out, a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*a.Cols : (i+1)*a.Cols]
		for j, x := range arow {
			orow[j] = x + v.Data[j]
		}
	}
}

// Apply returns f applied elementwise to a.
func Apply(a *Matrix, f func(float64) float64) *Matrix {
	out := New(a.Rows, a.Cols)
	ApplyInto(a, f, out)
	return out
}

// ApplyInto computes out = f(a) elementwise.
func ApplyInto(a *Matrix, f func(float64) float64, out *Matrix) {
	mustShape("Apply destination", out, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
}

// Sum returns the sum of all entries.
func Sum(a *Matrix) float64 {
	var s float64
	for _, v := range a.Data {
		s += v
	}
	return s
}

// Dot returns the Frobenius inner product <a, b>.
func Dot(a, b *Matrix) float64 {
	mustSameShape("Dot", a, b)
	var s float64
	for i, v := range a.Data {
		s += float64(v * b.Data[i])
	}
	return s
}

// Norm returns the Frobenius norm of a.
func Norm(a *Matrix) float64 {
	return math.Sqrt(Dot(a, a))
}

// MeanRows returns the 1 x Cols row vector of column means.
func MeanRows(a *Matrix) *Matrix {
	out := New(1, a.Cols)
	MeanRowsInto(a, out)
	return out
}

// MeanRowsInto computes the column means into a 1 x Cols destination.
func MeanRowsInto(a, out *Matrix) {
	mustShape("MeanRows destination", out, 1, a.Cols)
	out.Zero()
	if a.Rows == 0 {
		return
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	inv := 1.0 / float64(a.Rows)
	for j := range out.Data {
		out.Data[j] *= inv
	}
}

// MaxRows returns the 1 x Cols row vector of column maxima and, for each
// column, the row index attaining it (ties resolved to the smallest index).
func MaxRows(a *Matrix) (*Matrix, []int) {
	out := New(1, a.Cols)
	arg := make([]int, a.Cols)
	MaxRowsInto(a, out, arg)
	return out, arg
}

// MaxRowsInto computes column maxima and argmax rows into caller buffers.
func MaxRowsInto(a, out *Matrix, arg []int) {
	mustShape("MaxRows destination", out, 1, a.Cols)
	if len(arg) != a.Cols {
		panic(fmt.Sprintf("tensor: MaxRows arg length %d, want %d", len(arg), a.Cols))
	}
	for j := range arg {
		arg[j] = 0
	}
	if a.Rows == 0 {
		out.Zero()
		return
	}
	copy(out.Data, a.Data[:a.Cols])
	for i := 1; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			if v > out.Data[j] {
				out.Data[j] = v
				arg[j] = i
			}
		}
	}
}

// GatherRows returns the matrix whose i-th row is a's row idx[i].
func GatherRows(a *Matrix, idx []int) *Matrix {
	out := New(len(idx), a.Cols)
	GatherRowsInto(a, idx, out)
	return out
}

// GatherRowsInto gathers a's rows idx into out.
func GatherRowsInto(a *Matrix, idx []int, out *Matrix) {
	mustShape("GatherRows destination", out, len(idx), a.Cols)
	for i, r := range idx {
		copy(out.Row(i), a.Row(r))
	}
}

// ConcatCols returns [a | b], the horizontal concatenation of a and b.
func ConcatCols(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", a.Rows, b.Rows))
	}
	out := New(a.Rows, a.Cols+b.Cols)
	ConcatColsInto(a, b, out)
	return out
}

// ConcatColsInto writes [a | b] into out.
func ConcatColsInto(a, b, out *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", a.Rows, b.Rows))
	}
	mustShape("ConcatCols destination", out, a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*out.Cols:], a.Row(i))
		copy(out.Data[i*out.Cols+a.Cols:], b.Row(i))
	}
}

// ConcatRows returns the vertical concatenation of a above b.
func ConcatRows(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols && a.Rows != 0 && b.Rows != 0 {
		panic(fmt.Sprintf("tensor: ConcatRows col mismatch %d vs %d", a.Cols, b.Cols))
	}
	cols := a.Cols
	if a.Rows == 0 {
		cols = b.Cols
	}
	out := New(a.Rows+b.Rows, cols)
	copy(out.Data, a.Data)
	copy(out.Data[a.Rows*cols:], b.Data)
	return out
}

func mustSameShape(op string, a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func mustShape(what string, m *Matrix, rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("tensor: %s is %dx%d, want %dx%d", what, m.Rows, m.Cols, rows, cols))
	}
}
