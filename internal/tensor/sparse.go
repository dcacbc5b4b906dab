package tensor

import (
	"fmt"
	"sort"
)

// Sparse is an immutable sparse matrix in compressed sparse row (CSR) form.
// Row i's nonzeros are Col[RowPtr[i]:RowPtr[i+1]] (column indices, strictly
// increasing within a row) with values Val[RowPtr[i]:RowPtr[i+1]].
//
// The type exists for the GCN propagation operator: a windowed sub-DAG's
// normalised adjacency has O(E) nonzeros, so multiplying it as a dense n x n
// matrix wastes O(n²−E) work per layer per decision. Sparse operands are
// constants in the autograd sense — gradients flow through the dense operand
// of SpMM only — which matches how graph topology is used throughout READYS.
type Sparse struct {
	Rows, Cols int
	RowPtr     []int
	Col        []int
	Val        []float64
}

// NewSparse builds a CSR matrix from raw components, validating the
// structure eagerly (monotone row pointers, sorted in-range columns).
func NewSparse(rows, cols int, rowPtr, col []int, val []float64) *Sparse {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative sparse dimensions %dx%d", rows, cols))
	}
	if len(rowPtr) != rows+1 {
		panic(fmt.Sprintf("tensor: sparse RowPtr length %d, want %d", len(rowPtr), rows+1))
	}
	if len(col) != len(val) {
		panic(fmt.Sprintf("tensor: sparse Col/Val length mismatch %d vs %d", len(col), len(val)))
	}
	if rowPtr[0] != 0 || rowPtr[rows] != len(col) {
		panic(fmt.Sprintf("tensor: sparse RowPtr bounds [%d,%d], want [0,%d]", rowPtr[0], rowPtr[rows], len(col)))
	}
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		if lo > hi {
			panic(fmt.Sprintf("tensor: sparse RowPtr not monotone at row %d", i))
		}
		for k := lo; k < hi; k++ {
			if col[k] < 0 || col[k] >= cols {
				panic(fmt.Sprintf("tensor: sparse column %d out of range at row %d", col[k], i))
			}
			if k > lo && col[k] <= col[k-1] {
				panic(fmt.Sprintf("tensor: sparse columns not strictly increasing in row %d", i))
			}
		}
	}
	return &Sparse{Rows: rows, Cols: cols, RowPtr: rowPtr, Col: col, Val: val}
}

// SparseFromDense converts a dense matrix to CSR, keeping exact nonzeros.
func SparseFromDense(m *Matrix) *Sparse {
	rowPtr := make([]int, m.Rows+1)
	var col []int
	var val []float64
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			if v != 0 {
				col = append(col, j)
				val = append(val, v)
			}
		}
		rowPtr[i+1] = len(col)
	}
	return &Sparse{Rows: m.Rows, Cols: m.Cols, RowPtr: rowPtr, Col: col, Val: val}
}

// SparseFromRows builds a CSR matrix from per-row (column, value) entries.
// Entries within a row are sorted by column; duplicate columns accumulate.
func SparseFromRows(rows, cols int, entries [][]SparseEntry) *Sparse {
	if len(entries) != rows {
		panic(fmt.Sprintf("tensor: SparseFromRows got %d rows, want %d", len(entries), rows))
	}
	rowPtr := make([]int, rows+1)
	var col []int
	var val []float64
	for i, es := range entries {
		sorted := append([]SparseEntry(nil), es...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Col < sorted[b].Col })
		for _, e := range sorted {
			if e.Col < 0 || e.Col >= cols {
				panic(fmt.Sprintf("tensor: SparseFromRows column %d out of range in row %d", e.Col, i))
			}
			if n := len(col); n > rowPtr[i] && col[n-1] == e.Col {
				val[n-1] += e.Val
				continue
			}
			col = append(col, e.Col)
			val = append(val, e.Val)
		}
		rowPtr[i+1] = len(col)
	}
	return &Sparse{Rows: rows, Cols: cols, RowPtr: rowPtr, Col: col, Val: val}
}

// SparseEntry is one (column, value) pair of a row under construction.
type SparseEntry struct {
	Col int
	Val float64
}

// NNZ returns the number of stored nonzeros.
func (s *Sparse) NNZ() int { return len(s.Val) }

// At returns element (i, j) by binary search over row i.
func (s *Sparse) At(i, j int) float64 {
	if i < 0 || i >= s.Rows || j < 0 || j >= s.Cols {
		panic(fmt.Sprintf("tensor: sparse index (%d,%d) out of range for %dx%d", i, j, s.Rows, s.Cols))
	}
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	k := lo + sort.SearchInts(s.Col[lo:hi], j)
	if k < hi && s.Col[k] == j {
		return s.Val[k]
	}
	return 0
}

// Dense materialises the matrix densely (tests, ablation baselines).
func (s *Sparse) Dense() *Matrix {
	m := New(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		row := m.Data[i*s.Cols : (i+1)*s.Cols]
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			row[s.Col[k]] = s.Val[k]
		}
	}
	return m
}

// Equal reports exact equality of shape and stored structure/values.
func (s *Sparse) Equal(o *Sparse) bool {
	if s.Rows != o.Rows || s.Cols != o.Cols || len(s.Val) != len(o.Val) {
		return false
	}
	for i := range s.RowPtr {
		if s.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for k := range s.Val {
		if s.Col[k] != o.Col[k] || s.Val[k] != o.Val[k] {
			return false
		}
	}
	return true
}

// SpMM returns s*d (sparse × dense). Cost is O(nnz · d.Cols) instead of the
// dense O(s.Rows · s.Cols · d.Cols). Large products are split across row
// blocks like MatMul; per-output-element accumulation order is independent of
// the split, so results are bit-identical at any parallelism level.
func SpMM(s *Sparse, d *Matrix) *Matrix {
	out := New(s.Rows, d.Cols)
	SpMMInto(s, d, out)
	return out
}

// SpMMInto computes out = s*d into a caller-supplied matrix.
func SpMMInto(s *Sparse, d, out *Matrix) {
	if s.Cols != d.Rows {
		panic(fmt.Sprintf("tensor: SpMM shape mismatch %dx%d * %dx%d", s.Rows, s.Cols, d.Rows, d.Cols))
	}
	if out.Rows != s.Rows || out.Cols != d.Cols {
		panic(fmt.Sprintf("tensor: SpMM destination %dx%d, want %dx%d", out.Rows, out.Cols, s.Rows, d.Cols))
	}
	work := s.NNZ() * d.Cols
	if work < parallelThreshold || s.Rows < 2 {
		spMMRange(s, d, out, 0, s.Rows)
		return
	}
	parallelRows(s.Rows, func(lo, hi int) { spMMRange(s, d, out, lo, hi) })
}

// spMMRange computes rows [lo, hi) of out = s*d, one CSR row-kernel call per
// row where useRowKernel.
func spMMRange(s *Sparse, d, out *Matrix, lo, hi int) {
	p := d.Cols
	if !useRowKernel(p) {
		spMMLoop(s, d, out, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		klo, khi := s.RowPtr[i], s.RowPtr[i+1]
		csrRowAVX2(out.Data[i*p:(i+1)*p], s.Val[klo:khi], s.Col[klo:khi], d.Data)
	}
}

// spMMLoop is spMMRange without the row kernel (see matMulLoop).
func spMMLoop(s *Sparse, d, out *Matrix, lo, hi int) {
	p := d.Cols
	for i := lo; i < hi; i++ {
		orow := out.Data[i*p : (i+1)*p]
		for j := range orow {
			orow[j] = 0
		}
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			axpyF64(s.Val[k], d.Data[s.Col[k]*p:(s.Col[k]+1)*p], orow)
		}
	}
}

// SpMMTransA returns sᵀ*g without materialising the transpose — the gradient
// of SpMM's dense operand (d(s·H)/dH applied to an upstream gradient g).
func SpMMTransA(s *Sparse, g *Matrix) *Matrix {
	out := New(s.Cols, g.Cols)
	SpMMTransAInto(s, g, out)
	return out
}

// SpMMTransAInto computes out = sᵀ*g into a caller-supplied matrix. The
// scatter over output rows runs serially: backward passes are already
// per-decision concurrent at the rollout level, and a fixed accumulation
// order keeps gradients deterministic.
func SpMMTransAInto(s *Sparse, g, out *Matrix) {
	if s.Rows != g.Rows {
		panic(fmt.Sprintf("tensor: SpMMTransA shape mismatch %dx%d ᵀ* %dx%d", s.Rows, s.Cols, g.Rows, g.Cols))
	}
	if out.Rows != s.Cols || out.Cols != g.Cols {
		panic(fmt.Sprintf("tensor: SpMMTransA destination %dx%d, want %dx%d", out.Rows, out.Cols, s.Cols, g.Cols))
	}
	out.Zero()
	p := g.Cols
	for i := 0; i < s.Rows; i++ {
		grow := g.Data[i*p : (i+1)*p]
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			axpyF64(s.Val[k], grow, out.Data[s.Col[k]*p:(s.Col[k]+1)*p])
		}
	}
}
