// Package tensor provides dense float64 matrices and the linear-algebra
// primitives needed by the neural-network stack: allocation, elementwise
// arithmetic, reductions, and a cache-friendly, goroutine-parallel GEMM.
//
// The package is deliberately small and allocation-explicit: every operation
// either writes into a caller-supplied destination or returns a freshly
// allocated matrix, and shapes are validated eagerly so that shape bugs
// surface at the call site rather than deep inside a training loop.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
// The zero value is an empty 0x0 matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds the values in row-major order: element (i,j) is
	// Data[i*Cols+j]. len(Data) == Rows*Cols always holds for matrices
	// built through this package's constructors.
	Data []float64
}

// New returns a zero-initialised rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major) into a rows x cols matrix without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from a slice of equal-length rows, copying data.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("tensor: FromRows ragged input: row %d has %d cols, want %d", i, len(r), c))
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Full returns a rows x cols matrix with every entry set to v.
func Full(rows, cols int, v float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// RandUniform returns a rows x cols matrix with entries drawn uniformly from
// [-scale, scale] using rng.
func RandUniform(rng *rand.Rand, rows, cols int, scale float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		u := float64(rng.Float64()) // rounded, like u*2 below: see axpy.go
		m.Data[i] = (float64(u*2) - 1) * scale
	}
	return m
}

// RandNormal returns a rows x cols matrix with N(0, std) entries.
func RandNormal(rng *rand.Rand, rows, cols int, std float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// GlorotUniform returns a matrix initialised with the Glorot/Xavier uniform
// scheme, the default initialisation used for GCN and linear layers.
func GlorotUniform(rng *rand.Rand, rows, cols int) *Matrix {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return RandUniform(rng, rows, cols, limit)
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range for %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range for %dx%d", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every entry to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool {
	return m.Rows == o.Rows && m.Cols == o.Cols
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	TransposeInto(m, t)
	return t
}

// TransposeInto writes mᵀ into out.
func TransposeInto(m, out *Matrix) {
	mustShape("Transpose destination", out, m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			out.Data[j*out.Cols+i] = v
		}
	}
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.Rows, m.Cols)
	maxRows := m.Rows
	if maxRows > 6 {
		maxRows = 6
	}
	for i := 0; i < maxRows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		maxCols := m.Cols
		if maxCols > 8 {
			maxCols = 8
		}
		for j := 0; j < maxCols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		if maxCols < m.Cols {
			b.WriteString(" ...")
		}
	}
	if maxRows < m.Rows {
		b.WriteString("; ...")
	}
	b.WriteByte(']')
	return b.String()
}

// Equal reports exact equality of shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether m and o agree within absolute tolerance tol.
func (m *Matrix) AllClose(o *Matrix, tol float64) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}
