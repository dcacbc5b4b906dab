package taskgraph

import "fmt"

// Cholesky kernel indices. POTRF factorises a diagonal tile, TRSM solves a
// triangular system against a panel tile, SYRK updates a diagonal tile and
// GEMM updates an off-diagonal trailing tile.
const (
	KPOTRF Kernel = iota
	KTRSM
	KSYRK
	KGEMM
)

// NewCholesky builds the task graph of the tiled (right-looking) Cholesky
// factorisation of a T x T tile matrix. The accumulation updates on each tile
// are serialised, which yields the classical DAG with
//
//	#POTRF = T, #TRSM = #SYRK = T(T-1)/2, #GEMM = T(T-1)(T-2)/6,
//
// a total of T(T+1)(T+2)/6 tasks (20 for T=4, 56 for T=6, 120 for T=8,
// 220 for T=10, 364 for T=12 — matching §V-F of the paper).
func NewCholesky(T int) *Graph {
	if T < 1 {
		panic(fmt.Sprintf("taskgraph: Cholesky needs T >= 1, got %d", T))
	}
	g := newGraph(Cholesky, T, KernelNamesFor(Cholesky))

	potrf := make([]int, T)
	trsm := grid2(T) // trsm[i][k], i > k
	syrk := grid2(T) // syrk[i][k], i > k
	gemm := grid3(T) // gemm[i][j][k], i > j > k

	for k := 0; k < T; k++ {
		potrf[k] = g.AddTask(KPOTRF, fmt.Sprintf("POTRF(%d)", k))
		if k > 0 {
			// A(k,k) must carry every update A(k,k) -= A(k,j)A(k,j)ᵀ; the
			// serialised SYRK chain ends at SYRK(k, k-1).
			g.AddEdge(syrk[k][k-1], potrf[k])
		}
		for i := k + 1; i < T; i++ {
			trsm[i][k] = g.AddTask(KTRSM, fmt.Sprintf("TRSM(%d,%d)", i, k))
			g.AddEdge(potrf[k], trsm[i][k])
			if k > 0 {
				g.AddEdge(gemm[i][k][k-1], trsm[i][k])
			}
		}
		for i := k + 1; i < T; i++ {
			syrk[i][k] = g.AddTask(KSYRK, fmt.Sprintf("SYRK(%d,%d)", i, k))
			g.AddEdge(trsm[i][k], syrk[i][k])
			if k > 0 {
				g.AddEdge(syrk[i][k-1], syrk[i][k])
			}
		}
		for i := k + 2; i < T; i++ {
			for j := k + 1; j < i; j++ {
				gemm[i][j][k] = g.AddTask(KGEMM, fmt.Sprintf("GEMM(%d,%d,%d)", i, j, k))
				g.AddEdge(trsm[i][k], gemm[i][j][k])
				g.AddEdge(trsm[j][k], gemm[i][j][k])
				if k > 0 {
					g.AddEdge(gemm[i][j][k-1], gemm[i][j][k])
				}
			}
		}
	}
	return g
}

// CholeskyTaskCount returns the closed-form number of tasks of the tiled
// Cholesky DAG: T(T+1)(T+2)/6.
func CholeskyTaskCount(T int) int { return T * (T + 1) * (T + 2) / 6 }

func grid2(T int) [][]int {
	g := make([][]int, T)
	for i := range g {
		g[i] = make([]int, T)
		for j := range g[i] {
			g[i][j] = -1
		}
	}
	return g
}

func grid3(T int) [][][]int {
	g := make([][][]int, T)
	for i := range g {
		g[i] = grid2(T)
	}
	return g
}
