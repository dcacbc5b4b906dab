package core

import (
	"testing"

	"readys/internal/taskgraph"
)

func TestEncodeWithDirectedOperator(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	s := initialState(p)
	F := taskgraph.DescendantFeatures(p.Graph)
	sym := EncodeFault(s, 0, F, 2, false, false)
	dir := EncodeFault(s, 0, F, 2, true, false)
	if sym.Norm.Equal(dir.Norm) {
		t.Fatal("directed and symmetric operators must differ")
	}
	// The symmetric operator is symmetric; the directed one is not (for a
	// non-trivial window).
	symmetric := func(m interface{ At(i, j int) float64 }, n int) bool {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.At(i, j) != m.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	n := len(sym.Nodes)
	if !symmetric(sym.Norm, n) {
		t.Fatal("symmetric operator is not symmetric")
	}
	if symmetric(dir.Norm, n) {
		t.Fatal("directed operator should not be symmetric on this window")
	}
	// Directed rows are stochastic.
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			sum += dir.Norm.At(i, j)
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			t.Fatalf("directed row %d sums to %v", i, sum)
		}
	}
	// Feature matrices are identical — only the operator changes.
	if !sym.X.Equal(dir.X) {
		t.Fatal("features must not depend on the operator")
	}
}
