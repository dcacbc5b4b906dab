// Package tensor provides dense float64 matrices and the linear-algebra
// primitives needed by the neural-network stack: allocation, elementwise
// arithmetic, reductions, and dense and sparse products computed one output
// row at a time (on AVX2 row kernels where the CPU has them).
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

// TransposeInto writes mᵀ into out.
func TransposeInto(m, out *Matrix) {
	mustShape("Transpose destination", out, m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			out.Data[j*out.Cols+i] = v
		}
	}
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
