package tensor

import "fmt"

// Reduced-precision kernels for the serving forward path. Training and
// checkpoints stay float64; these types exist so a policy loaded for serving
// can run its GCN stack in float32, where the ~2x narrower lanes roughly double
// matmul throughput.

// Matrix32 is the float32 counterpart of Matrix: dense row-major.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix32 allocates a zeroed Rows x Cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Reset reshapes m to rows x cols, reusing the backing slice when it is large
// enough. Contents are unspecified after Reset; callers overwrite every row.
func (m *Matrix32) Reset(rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float32, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix32) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// SetFrom converts src into m, reshaping as needed.
func (m *Matrix32) SetFrom(src *Matrix) {
	m.Reset(src.Rows, src.Cols)
	for i, v := range src.Data {
		m.Data[i] = float32(v)
	}
}

// MatMul32SkipInto computes out = a*b in float32, skipping zero a-elements.
// Row-sparsity in a (zero features, post-ReLU activations) is common on the
// serving path, and the skip is what makes the reassociated GCN product pay.
func MatMul32SkipInto(a, b, out *Matrix32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul32 shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out.Reset(a.Rows, b.Cols)
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
			axpyF32(av, b.Data[k*p:(k+1)*p], orow)
		}
	}
}

// SpMM32Into computes out = s*d where s supplies the CSR structure and val the
// float32 copies of its nonzero values (len(val) == len(s.Val)).
func SpMM32Into(s *Sparse, val []float32, d, out *Matrix32) {
	if s.Cols != d.Rows {
		panic(fmt.Sprintf("tensor: SpMM32 shape mismatch %dx%d * %dx%d", s.Rows, s.Cols, d.Rows, d.Cols))
	}
	out.Reset(s.Rows, d.Cols)
	p := d.Cols
	for i := 0; i < s.Rows; i++ {
		orow := out.Data[i*p : (i+1)*p]
		for j := range orow {
			orow[j] = 0
		}
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			axpyF32(val[k], d.Data[s.Col[k]*p:(s.Col[k]+1)*p], orow)
		}
	}
}
