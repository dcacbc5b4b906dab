package taskgraph

import "fmt"

// Additional DAG families beyond the paper's three factorisation kernels.
// They stress different scheduling regimes: Gemm is embarrassingly parallel
// with long independent chains, Stencil is a tight wavefront pipeline where
// the parallelism front grows and shrinks, and ForkJoin alternates between
// wide parallel sections and serial bottlenecks.

// GEMM kernel indices (tiled C = A·B + C). The multiply-accumulate chains use
// a single kernel type; the other three index the load/store phases.
const (
	KLoadA Kernel = iota
	KLoadB
	KStoreC
	KMulAcc
)

// NewGemm builds the task graph of a tiled matrix product C = A·B with T
// tiles per dimension: for every output tile (i,j), a serialised chain of T
// multiply-accumulate tasks followed by a store, preceded by the loads of the
// needed A-row and B-column tiles. Total tasks: 2T² loads + T³ multiplies +
// T² stores.
func NewGemm(T int) *Graph {
	if T < 1 {
		panic(fmt.Sprintf("taskgraph: Gemm needs T >= 1, got %d", T))
	}
	g := newGraph(Gemm, T, KernelNamesFor(Gemm))
	loadA := grid2(T)
	loadB := grid2(T)
	for i := 0; i < T; i++ {
		for k := 0; k < T; k++ {
			loadA[i][k] = g.AddTask(KLoadA, fmt.Sprintf("LOAD_A(%d,%d)", i, k))
			loadB[i][k] = g.AddTask(KLoadB, fmt.Sprintf("LOAD_B(%d,%d)", i, k))
		}
	}
	for i := 0; i < T; i++ {
		for j := 0; j < T; j++ {
			prev := -1
			for k := 0; k < T; k++ {
				m := g.AddTask(KMulAcc, fmt.Sprintf("GEMM(%d,%d,%d)", i, j, k))
				g.AddEdge(loadA[i][k], m)
				g.AddEdge(loadB[k][j], m)
				if prev != -1 {
					g.AddEdge(prev, m)
				}
				prev = m
			}
			st := g.AddTask(KStoreC, fmt.Sprintf("STORE_C(%d,%d)", i, j))
			g.AddEdge(prev, st)
		}
	}
	return g
}

// GemmTaskCount returns the closed-form task count of NewGemm:
// 2T² + T³ + T².
func GemmTaskCount(T int) int { return T*T*T + 3*T*T }

// Stencil kernel indices: tasks are typed by their position in the grid,
// which gives the four kernels different frequencies and dependency roles.
const (
	KCorner Kernel = iota
	KEdgeRow
	KEdgeCol
	KInterior
)

// NewStencil builds a T x T wavefront (pipeline) DAG: cell (i,j) depends on
// (i-1,j) and (i,j-1), the dependency pattern of Smith-Waterman, LU panels or
// 2D Gauss-Seidel sweeps. The parallel front grows to width T mid-sweep and
// shrinks back to 1, stressing schedulers under varying parallelism. T² tasks.
func NewStencil(T int) *Graph {
	if T < 1 {
		panic(fmt.Sprintf("taskgraph: Stencil needs T >= 1, got %d", T))
	}
	g := newGraph(Stencil, T, KernelNamesFor(Stencil))
	id := grid2(T)
	for i := 0; i < T; i++ {
		for j := 0; j < T; j++ {
			k := KInterior
			switch {
			case i == 0 && j == 0:
				k = KCorner
			case i == 0:
				k = KEdgeRow
			case j == 0:
				k = KEdgeCol
			}
			id[i][j] = g.AddTask(k, fmt.Sprintf("CELL(%d,%d)", i, j))
			if i > 0 {
				g.AddEdge(id[i-1][j], id[i][j])
			}
			if j > 0 {
				g.AddEdge(id[i][j-1], id[i][j])
			}
		}
	}
	return g
}

// StencilTaskCount returns T².
func StencilTaskCount(T int) int { return T * T }

// Fork-join kernel indices.
const (
	KFork Kernel = iota
	KWork
	KJoin
	KReduce
)

// NewForkJoin builds a fork-join pipeline with `stages` serial stages of
// `width` parallel workers each: fork → width×work → join per stage, the
// join feeding the next fork, and a final reduce task. Bulk-synchronous
// applications (BSP supersteps, map-reduce rounds) have this shape.
// Total tasks: stages·(width+2) + 1.
func NewForkJoin(stages, width int) *Graph {
	if stages < 1 || width < 1 {
		panic(fmt.Sprintf("taskgraph: ForkJoin needs stages, width >= 1, got %d, %d", stages, width))
	}
	g := newGraph(ForkJoin, stages, KernelNamesFor(ForkJoin))
	prevJoin := -1
	for s := 0; s < stages; s++ {
		fork := g.AddTask(KFork, fmt.Sprintf("FORK(%d)", s))
		if prevJoin != -1 {
			g.AddEdge(prevJoin, fork)
		}
		join := g.AddTask(KJoin, fmt.Sprintf("JOIN(%d)", s))
		for w := 0; w < width; w++ {
			work := g.AddTask(KWork, fmt.Sprintf("WORK(%d,%d)", s, w))
			g.AddEdge(fork, work)
			g.AddEdge(work, join)
		}
		prevJoin = join
	}
	reduce := g.AddTask(KReduce, "REDUCE")
	g.AddEdge(prevJoin, reduce)
	return g
}

// ForkJoinTaskCount returns stages·(width+2) + 1.
func ForkJoinTaskCount(stages, width int) int { return stages*(width+2) + 1 }
