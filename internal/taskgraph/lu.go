package taskgraph

import "fmt"

// LU kernel indices. GETRF factorises the diagonal tile, TRSML solves the
// column panel below it, TRSMU the row panel to its right, and GEMM updates
// the trailing submatrix.
const (
	KGETRF Kernel = iota
	KTRSML
	KTRSMU
	KGEMMLU
)

// NewLU builds the task graph of the tiled LU factorisation (without
// pivoting, as in the accelerator-oriented variant of Agullo et al. [3]) of a
// T x T tile matrix:
//
//	#GETRF = T, #TRSML = #TRSMU = T(T-1)/2, #GEMM = T(T-1)(2T-1)/6,
//
// a total of T(T+1)(2T+1)/6 tasks (30 for T=4).
func NewLU(T int) *Graph {
	if T < 1 {
		panic(fmt.Sprintf("taskgraph: LU needs T >= 1, got %d", T))
	}
	g := newGraph(LU, T, KernelNamesFor(LU))

	getrf := make([]int, T)
	trsmL := grid2(T) // trsmL[i][k]: tile A(i,k), i > k
	trsmU := grid2(T) // trsmU[j][k]: tile A(k,j), j > k
	gemm := grid3(T)  // gemm[i][j][k]: update of A(i,j) at step k; i,j > k

	for k := 0; k < T; k++ {
		getrf[k] = g.AddTask(KGETRF, fmt.Sprintf("GETRF(%d)", k))
		if k > 0 {
			g.AddEdge(gemm[k][k][k-1], getrf[k])
		}
		for i := k + 1; i < T; i++ {
			trsmL[i][k] = g.AddTask(KTRSML, fmt.Sprintf("TRSM_L(%d,%d)", i, k))
			g.AddEdge(getrf[k], trsmL[i][k])
			if k > 0 {
				g.AddEdge(gemm[i][k][k-1], trsmL[i][k])
			}
		}
		for j := k + 1; j < T; j++ {
			trsmU[j][k] = g.AddTask(KTRSMU, fmt.Sprintf("TRSM_U(%d,%d)", k, j))
			g.AddEdge(getrf[k], trsmU[j][k])
			if k > 0 {
				g.AddEdge(gemm[k][j][k-1], trsmU[j][k])
			}
		}
		for i := k + 1; i < T; i++ {
			for j := k + 1; j < T; j++ {
				gemm[i][j][k] = g.AddTask(KGEMMLU, fmt.Sprintf("GEMM(%d,%d,%d)", i, j, k))
				g.AddEdge(trsmL[i][k], gemm[i][j][k])
				g.AddEdge(trsmU[j][k], gemm[i][j][k])
				if k > 0 {
					g.AddEdge(gemm[i][j][k-1], gemm[i][j][k])
				}
			}
		}
	}
	return g
}

// LUTaskCount returns the closed-form number of tasks of the tiled LU DAG:
// T(T+1)(2T+1)/6.
func LUTaskCount(T int) int { return T * (T + 1) * (2*T + 1) / 6 }
