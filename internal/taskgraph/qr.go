package taskgraph

import "fmt"

// QR kernel indices. GEQRT factorises the diagonal tile, ORMQR applies its
// reflectors to the row panel, TSQRT eliminates a sub-diagonal tile against
// the diagonal one, and TSMQR applies the corresponding reflectors to the
// trailing rows.
const (
	KGEQRT Kernel = iota
	KORMQR
	KTSQRT
	KTSMQR
)

// NewQR builds the task graph of the tiled QR factorisation with a flat
// elimination tree (the StarPU/PLASMA variant of Agullo et al. [4]) of a
// T x T tile matrix:
//
//	#GEQRT = T, #ORMQR = #TSQRT = T(T-1)/2, #TSMQR = T(T-1)(2T-1)/6,
//
// a total of T(T+1)(2T+1)/6 tasks, the same count as LU but with longer
// serialised chains (TSQRT/TSMQR update two tile rows each, which serialises
// the panel).
func NewQR(T int) *Graph {
	if T < 1 {
		panic(fmt.Sprintf("taskgraph: QR needs T >= 1, got %d", T))
	}
	g := newGraph(QR, T, KernelNamesFor(QR))

	geqrt := make([]int, T)
	ormqr := grid2(T) // ormqr[j][k]: apply to A(k,j), j > k
	tsqrt := grid2(T) // tsqrt[i][k]: eliminate A(i,k) against A(k,k), i > k
	tsmqr := grid3(T) // tsmqr[i][j][k]: update A(k,j) and A(i,j); i,j > k

	for k := 0; k < T; k++ {
		geqrt[k] = g.AddTask(KGEQRT, fmt.Sprintf("GEQRT(%d)", k))
		if k > 0 {
			g.AddEdge(tsmqr[k][k][k-1], geqrt[k])
		}
		for j := k + 1; j < T; j++ {
			ormqr[j][k] = g.AddTask(KORMQR, fmt.Sprintf("ORMQR(%d,%d)", k, j))
			g.AddEdge(geqrt[k], ormqr[j][k])
			if k > 0 {
				g.AddEdge(tsmqr[k][j][k-1], ormqr[j][k])
			}
		}
		for i := k + 1; i < T; i++ {
			tsqrt[i][k] = g.AddTask(KTSQRT, fmt.Sprintf("TSQRT(%d,%d)", i, k))
			// TSQRT(i,k) reads/writes A(k,k): serialised chain starting at GEQRT(k).
			if i == k+1 {
				g.AddEdge(geqrt[k], tsqrt[i][k])
			} else {
				g.AddEdge(tsqrt[i-1][k], tsqrt[i][k])
			}
			if k > 0 {
				g.AddEdge(tsmqr[i][k][k-1], tsqrt[i][k])
			}
		}
		for i := k + 1; i < T; i++ {
			for j := k + 1; j < T; j++ {
				tsmqr[i][j][k] = g.AddTask(KTSMQR, fmt.Sprintf("TSMQR(%d,%d,%d)", i, j, k))
				g.AddEdge(tsqrt[i][k], tsmqr[i][j][k])
				// TSMQR(i,j,k) reads/writes A(k,j): chain from ORMQR(k,j).
				if i == k+1 {
					g.AddEdge(ormqr[j][k], tsmqr[i][j][k])
				} else {
					g.AddEdge(tsmqr[i-1][j][k], tsmqr[i][j][k])
				}
				if k > 0 {
					g.AddEdge(tsmqr[i][j][k-1], tsmqr[i][j][k])
				}
			}
		}
	}
	return g
}

// QRTaskCount returns the closed-form number of tasks of the tiled QR DAG:
// T(T+1)(2T+1)/6.
func QRTaskCount(T int) int { return T * (T + 1) * (2*T + 1) / 6 }

// NewByKind dispatches to the generator for the given family with a single
// size parameter T. Random graphs are not supported here — they need an RNG;
// use NewLayeredRandom.
func NewByKind(kind Kind, T int) *Graph {
	switch kind {
	case Cholesky:
		return NewCholesky(T)
	case LU:
		return NewLU(T)
	case QR:
		return NewQR(T)
	default:
		panic(fmt.Sprintf("taskgraph: NewByKind unsupported kind %v", kind))
	}
}

// NumTasksFor returns NewByKind(kind, T).NumTasks() in closed form, so that a
// size can be judged (a request bounded, a training budget scaled) without
// building the graph. It does not overflow for T up to 2^20.
func NumTasksFor(kind Kind, T int) int {
	switch kind {
	case Cholesky:
		return CholeskyTaskCount(T)
	case LU:
		return LUTaskCount(T)
	case QR:
		return QRTaskCount(T)
	default:
		panic(fmt.Sprintf("taskgraph: NumTasksFor unsupported kind %v", kind))
	}
}

// MaxTasks bounds the graph a decoder of outside input (a serve request, a
// stream arrival trace) may have built: windows over larger graphs make single
// forward passes arbitrarily expensive, and a size of 10⁹ asks for a graph no
// machine holds.
const MaxTasks = 4096

// WithinMaxTasks reports whether NewByKind(kind, T) builds at most MaxTasks
// tasks, by the closed form and before anything is built. Every family has at
// least T tasks, so bounding T first keeps the closed form far from
// overflowing. kind must have a sized generator (not Random).
func WithinMaxTasks(kind Kind, T int) bool {
	return T <= MaxTasks && NumTasksFor(kind, T) <= MaxTasks
}
