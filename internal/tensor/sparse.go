package tensor

import "fmt"

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

// NNZ returns the number of stored nonzeros.
func (s *Sparse) NNZ() int { return len(s.Val) }

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
// dense O(s.Rows · s.Cols · d.Cols).
func SpMM(s *Sparse, d *Matrix) *Matrix {
	out := New(s.Rows, d.Cols)
	SpMMInto(s, d, out)
	return out
}

// SpMMInto computes out = s*d into a caller-supplied matrix, one CSR
// row-kernel call per row where useRowKernel.
func SpMMInto(s *Sparse, d, out *Matrix) {
	if s.Cols != d.Rows {
		panic(fmt.Sprintf("tensor: SpMM shape mismatch %dx%d * %dx%d", s.Rows, s.Cols, d.Rows, d.Cols))
	}
	if out.Rows != s.Rows || out.Cols != d.Cols {
		panic(fmt.Sprintf("tensor: SpMM destination %dx%d, want %dx%d", out.Rows, out.Cols, s.Rows, d.Cols))
	}
	p := d.Cols
	if !useRowKernel(p) {
		spMMLoop(s, d, out)
		return
	}
	for i := 0; i < s.Rows; i++ {
		klo, khi := s.RowPtr[i], s.RowPtr[i+1]
		csrRowAVX2(out.Data[i*p:(i+1)*p], s.Val[klo:khi], s.Col[klo:khi], d.Data)
	}
}

// spMMLoop is SpMMInto without the row kernel (see matMulLoop).
func spMMLoop(s *Sparse, d, out *Matrix) {
	p := d.Cols
	for i := 0; i < s.Rows; i++ {
		orow := out.Data[i*p : (i+1)*p]
		for j := range orow {
			orow[j] = 0
		}
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			axpyF64(s.Val[k], d.Data[s.Col[k]*p:(s.Col[k]+1)*p], orow)
		}
	}
}

// SpMMTransAInto computes out = sᵀ*g into a caller-supplied matrix,
// scattering over output rows in a fixed order.
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
