package tensor

import (
	"fmt"
	"math"
)

// MatMul returns a*b. It panics if the inner dimensions disagree.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(a, b, out)
	return out
}

// MatMulInto computes out = a*b into a caller-supplied (zeroed or dirty)
// destination.
func MatMulInto(a, b, out *Matrix) {
	mustMatMul(a, b, out)
	matMulRows(a, b, nil, nil, out)
}

// LinearReLUInto computes out = ReLU(x*w + bias), a dense layer. It is
// MatMulInto, AddRowVectorInto and `v > 0 ? v : 0` with the same bits: on AVX2
// hosts the row kernel applies bias and ReLU to the finished row before it
// stores it, elsewhere the three passes run one after the other. A non-nil
// mask, ReLUMaskLen(out.Rows, out.Cols) words long, receives the layer's ReLU
// mask: one bit per entry of out, set where it is > 0 (see ApplyReLUMask).
func LinearReLUInto(x, w, bias, out *Matrix, mask []uint32) {
	if bias.Rows != 1 || bias.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: LinearReLU bias wants 1x%d, got %dx%d", w.Cols, bias.Rows, bias.Cols))
	}
	if mask != nil && len(mask) != ReLUMaskLen(x.Rows, w.Cols) {
		panic(fmt.Sprintf("tensor: LinearReLU mask has %d words, want %d", len(mask), ReLUMaskLen(x.Rows, w.Cols)))
	}
	if !useRowKernel(w.Cols) {
		MatMulInto(x, w, out)
		AddRowVectorInto(out, bias, out)
		reluMaskLoop(out, mask)
		return
	}
	mustMatMul(x, w, out)
	matMulRows(x, w, bias.Data, mask, out)
}

// reluMaskLoop is the ReLU pass of LinearReLUInto without the row kernel, and
// writes the mask (if any) from the finished entries: +0 or positive, so an
// entry's sign bit is clear and its bits are nonzero exactly where it is > 0.
func reluMaskLoop(out *Matrix, mask []uint32) {
	for i, v := range out.Data {
		if !(v > 0) {
			out.Data[i] = 0
		}
	}
	if mask == nil {
		return
	}
	stride := maskStride(out.Cols)
	for i := 0; i < out.Rows; i++ {
		words := mask[i*stride : (i+1)*stride]
		clear(words)
		for j, v := range out.Row(i) {
			words[j>>5] |= uint32(-math.Float64bits(v)>>63) << (j & 31)
		}
	}
}

// A ReLU mask keeps one bit per entry of a rows x cols matrix: row i owns
// words [i·s, (i+1)·s) of the mask, s = ⌈cols/32⌉, and entry (i, j) is bit
// j%32 of the row's word j/32. Bits past the last column are clear.

// maskStride returns the words a mask row of cols entries takes.
func maskStride(cols int) int { return (cols + 31) / 32 }

// ReLUMaskLen returns how many words the ReLU mask of a rows x cols matrix
// takes.
func ReLUMaskLen(rows, cols int) int { return rows * maskStride(cols) }

// ApplyReLUMask zeroes every entry of m whose bit in mask, a ReLU mask of m's
// shape, is clear, and leaves the others' bits as they are: an AND with the
// bit spread over the entry, with no branch to mispredict on a half-zero
// activation. On AVX2 hosts a matrix whose rows fill whole mask words (a
// width that is a multiple of 32, as the network's are) goes four entries
// to a vector, in one run over all rows.
func ApplyReLUMask(m *Matrix, mask []uint32) {
	stride := maskStride(m.Cols)
	if len(mask) != m.Rows*stride {
		panic(fmt.Sprintf("tensor: ReLU mask has %d words for %dx%d, want %d", len(mask), m.Rows, m.Cols, m.Rows*stride))
	}
	if hasAVX2 && m.Cols%32 == 0 {
		andMaskAVX2(m.Data, mask)
		return
	}
	for i := 0; i < m.Rows; i++ {
		andMaskLoop(m.Row(i), mask[i*stride:(i+1)*stride])
	}
}

// andMaskLoop is ApplyReLUMask on one row, without the vector kernel.
func andMaskLoop(row []float64, words []uint32) {
	for w, bits := range words {
		part := row[w*32 : min(w*32+32, len(row))]
		for j, v := range part {
			part[j] = math.Float64frombits(math.Float64bits(v) & -uint64(bits&1))
			bits >>= 1
		}
	}
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

// matMulRows computes out = a*b, one row-kernel call per row where
// useRowKernel (see denseRowAVX2: the output row stays in registers for the
// whole k loop, a non-nil bias finishes it as max(row+bias, +0), and a
// non-nil mask then receives its ReLU mask).
func matMulRows(a, b *Matrix, bias []float64, mask []uint32, out *Matrix) {
	n, p := a.Cols, b.Cols
	if !useRowKernel(p) {
		matMulLoop(a, b, out)
		return
	}
	stride := maskStride(p)
	for i := 0; i < a.Rows; i++ {
		var m []uint32
		if mask != nil {
			m = mask[i*stride:]
		}
		denseRowAVX2(out.Data[i*p:(i+1)*p], a.Data[i*n:], 1, n, b.Data, bias, m, false)
	}
}

// matMulLoop is matMulRows without the row kernel: the path of hosts without
// AVX2 and of narrow outputs, and the oracle the kernel is tested against. The
// ikj loop order streams the inner loop through contiguous rows of b and out.
// Terms with av == 0 are skipped: since every accumulator starts at +0, a
// partial sum can never be -0 under round-to-nearest, so adding av*brow[j]
// (which is ±0 when av is ±0 and bv finite) is the identity and skipping it is
// bit-exact. Non-finite b values never occur here (features, weights, and
// activations are all finite), and the axpy kernel matches the scalar loop bit
// for bit.
func matMulLoop(a, b, out *Matrix) {
	n, p := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
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

// MatMulTransAInto computes out = aᵀ*b into a caller-supplied destination:
// output row i is Σ_k a[k,i]·b[k,:] over ascending k from +0, ±0 terms of a
// skipped (bit-exact, see matMulLoop). It runs no row kernel: tests call it
// as the plain reference of the segmented products below.
func MatMulTransAInto(a, b, out *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %dx%d ᵀ* %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulTransA destination", out, a.Cols, b.Cols)
	n, p := a.Cols, b.Cols
	for i := 0; i < n; i++ {
		orow := out.Data[i*p : (i+1)*p]
		for j := range orow {
			orow[j] = 0
		}
		for k := 0; k < a.Rows; k++ {
			if av := a.Data[k*n+i]; av != 0 {
				axpyF64(av, b.Data[k*p:(k+1)*p], orow)
			}
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
// in order. Each range's product is formed from +0 and added to acc as it
// leaves the row kernel, so acc ends with exactly the bits that one
// MatMulTransAInto + AddInPlace per range would leave — the association a sum
// of per-sample gradients has when the samples are processed one by one.
func MatMulTransASegAcc(a, b *Matrix, segs []int, acc *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransASegAcc shape mismatch %dx%d ᵀ* %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulTransASegAcc accumulator", acc, a.Cols, b.Cols)
	segAcc(a.Data, a.Cols, b, segs, acc)
}

// ColSumsSegAcc adds the column sums of b's rows in each range of segs to the
// row vector acc, range by range in order, each summed from +0 in row order.
// It is MatMulTransASegAcc against a column of ones, read as one 1.0 at stride
// 0: 1·x is x exactly, and 1 is never skipped as a zero.
func ColSumsSegAcc(b *Matrix, segs []int, acc *Matrix) {
	mustShape("ColSumsSegAcc accumulator", acc, 1, b.Cols)
	segAcc(one[:], 0, b, segs, acc)
}

var one = [1]float64{1}

// segAcc adds to row i of acc, for each range of segs in order, the range's
// Σ_k a[k*stride+i]·b[k,:] over its rows k, formed from +0 — on the row
// kernel, whose accumulate epilogue adds the finished row to acc's.
func segAcc(a []float64, stride int, b *Matrix, segs []int, acc *Matrix) {
	p := b.Cols
	if !useRowKernel(p) {
		segAccLoop(a, stride, b, segs, acc)
		return
	}
	for s := 0; s < SegmentCount(segs); s++ {
		klo, khi := SegmentBounds(segs, s, b.Rows)
		for i := 0; i < acc.Rows; i++ {
			ak := a // an empty range reads no term
			if klo < khi {
				ak = a[klo*stride+i:]
			}
			denseRowAVX2(acc.Data[i*p:(i+1)*p], ak, stride, khi-klo, b.Data[klo*p:], nil, nil, true)
		}
	}
}

// segAccLoop is segAcc without the row kernel: each entry of a range's
// product is summed in one register over ascending k from +0, ±0 terms of a
// skipped (bit-exact, see matMulLoop), and added to acc.
func segAccLoop(a []float64, stride int, b *Matrix, segs []int, acc *Matrix) {
	p := b.Cols
	for s := 0; s < SegmentCount(segs); s++ {
		klo, khi := SegmentBounds(segs, s, b.Rows)
		for i := 0; i < acc.Rows; i++ {
			out := acc.Data[i*p : (i+1)*p]
			for j := range out {
				var v float64
				for k := klo; k < khi; k++ {
					if av := a[k*stride+i]; av != 0 {
						v += float64(av * b.Data[k*p+j])
					}
				}
				out[j] += v
			}
		}
	}
}

// AddInto computes out = a+b.
func AddInto(a, b, out *Matrix) {
	mustSameShape("Add", a, b)
	mustShape("Add destination", out, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
}

// SubInto computes out = a-b.
func SubInto(a, b, out *Matrix) {
	mustSameShape("Sub", a, b)
	mustShape("Sub destination", out, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
}

// MulInto computes out = a⊙b.
func MulInto(a, b, out *Matrix) {
	mustSameShape("Mul", a, b)
	mustShape("Mul destination", out, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
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

// GatherRowsInto gathers a's rows idx into out.
func GatherRowsInto(a *Matrix, idx []int, out *Matrix) {
	mustShape("GatherRows destination", out, len(idx), a.Cols)
	for i, r := range idx {
		copy(out.Row(i), a.Row(r))
	}
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
