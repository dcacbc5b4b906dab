package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"readys/internal/autograd"
	"readys/internal/tensor"
)

// Linear is a fully connected layer y = xW + b. In the paper's notation,
// FC(in, out).
type Linear struct {
	W, B *Param
}

// NewLinear builds an in x out linear layer with Glorot-uniform weights and a
// zero bias. The name prefixes the parameter names for checkpointing.
func NewLinear(rng *rand.Rand, name string, in, out int) *Linear {
	return &Linear{
		W: NewParam(name+".W", tensor.GlorotUniform(rng, in, out)),
		B: NewParam(name+".b", tensor.New(1, out)),
	}
}

// Forward applies the layer to x (rows are samples) on b's tape. segs is the
// segment table of x's rows when x stacks several independent inputs (nil for
// one): the parameters' gradients are then summed input by input, as one tape
// per input would have (see autograd.Tape.MatMulSeg).
func (l *Linear) Forward(b *Binding, x *autograd.Node, segs []int) *autograd.Node {
	return b.Tape.AddRowVectorSeg(b.Tape.MatMulSeg(x, b.Bind(l.W), segs), b.Bind(l.B), segs)
}

// ForwardReLU is ReLU(Forward(b, x, segs)) as one tape node, with the same
// bits (see autograd.Tape.LinearReLUSeg).
func (l *Linear) ForwardReLU(b *Binding, x *autograd.Node, segs []int) *autograd.Node {
	return b.Tape.LinearReLUSeg(x, b.Bind(l.W), b.Bind(l.B), segs)
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// GCN is one graph-convolution layer in the Kipf–Welling formulation used by
// the paper (§III-B):
//
//	H' = φ( D̃^{-1/2} Ã D̃^{-1/2} H W + b )
//
// where Ã is the adjacency matrix with self-loops. The normalised operator
// D̃^{-1/2}ÃD̃^{-1/2} is precomputed per sub-DAG with NormalizedAdjacency and
// passed to Forward as a constant, since the graph topology carries no
// gradient.
type GCN struct {
	W, B *Param
}

// NewGCN builds a GCN layer mapping in-dimensional node features to out
// dimensions.
func NewGCN(rng *rand.Rand, name string, in, out int) *GCN {
	return &GCN{
		W: NewParam(name+".W", tensor.GlorotUniform(rng, in, out)),
		B: NewParam(name+".b", tensor.New(1, out)),
	}
}

// Forward computes φ(norm · h · W + b) with φ = ReLU. norm must be the
// n x n normalised adjacency of the sub-DAG in CSR form and h the n x in
// feature matrix. Propagation runs as SpMM, so each layer costs O(E·h)
// rather than the dense O(n²·h). For a stack of sub-DAGs, norm is their
// block-diagonal operator and segs the segment table of h's rows (nil for one
// sub-DAG), as in Linear.Forward.
func (g *GCN) Forward(b *Binding, norm *tensor.Sparse, h *autograd.Node, segs []int) *autograd.Node {
	return b.Tape.LinearReLUSeg(b.Tape.SpMM(norm, h), b.Bind(g.W), b.Bind(g.B), segs)
}

// Params returns the layer's trainable parameters.
func (g *GCN) Params() []*Param { return []*Param{g.W, g.B} }

// NormalizedAdjacency returns D̃^{-1/2} (A + I) D̃^{-1/2} for the directed
// adjacency A given as successor lists: succ[i] holds the indices j of the
// edges i→j. Treating the operator symmetrically (information flows both
// ways, as in the paper's GCN) means both (i,j) and (j,i) are set. The
// result is built directly in CSR form — O(E) work and memory, never
// materialising the n x n matrix.
func NormalizedAdjacency(n int, succ [][]int) *tensor.Sparse {
	neigh := adjacencyRows(n, succ, true)
	deg := make([]float64, n)
	for i, row := range neigh {
		deg[i] = float64(len(row))
	}
	entries := make([][]tensor.SparseEntry, n)
	for i, row := range neigh {
		es := make([]tensor.SparseEntry, len(row))
		for k, j := range row {
			es[k] = tensor.SparseEntry{Col: j, Val: 1 / sqrtf(deg[i]*deg[j])}
		}
		entries[i] = es
	}
	return tensor.SparseFromRows(n, n, entries)
}

// DirectedNormalizedAdjacency returns D̃^{-1} (A + I) for a strictly
// downstream information flow (ablation variant): row-normalised adjacency
// where node i aggregates itself and its successors. Built directly in CSR
// form like NormalizedAdjacency.
func DirectedNormalizedAdjacency(n int, succ [][]int) *tensor.Sparse {
	neigh := adjacencyRows(n, succ, false)
	entries := make([][]tensor.SparseEntry, n)
	for i, row := range neigh {
		d := float64(len(row))
		es := make([]tensor.SparseEntry, len(row))
		for k, j := range row {
			es[k] = tensor.SparseEntry{Col: j, Val: 1 / d}
		}
		entries[i] = es
	}
	return tensor.SparseFromRows(n, n, entries)
}

// adjacencyRows builds sorted, deduplicated neighbour lists of A + I from
// successor lists, mirroring edges when symmetric is set. Row i always
// contains i (the self-loop), so every row is non-empty.
func adjacencyRows(n int, succ [][]int, symmetric bool) [][]int {
	rows := make([][]int, n)
	for i := 0; i < n; i++ {
		rows[i] = append(rows[i], i) // self-loop
	}
	for i, js := range succ {
		for _, j := range js {
			if i < 0 || i >= n || j < 0 || j >= n {
				panic(fmt.Sprintf("nn: edge (%d,%d) out of range for n=%d", i, j, n))
			}
			rows[i] = append(rows[i], j)
			if symmetric {
				rows[j] = append(rows[j], i)
			}
		}
	}
	for i := range rows {
		sort.Ints(rows[i])
		// Deduplicate in place (repeated edges and i→i self-edges).
		w := 0
		for k, v := range rows[i] {
			if k == 0 || v != rows[i][w-1] {
				rows[i][w] = v
				w++
			}
		}
		rows[i] = rows[i][:w]
	}
	return rows
}

// sqrtf is math.Sqrt with a guard for zero degrees (isolated vertices keep a
// unit self-loop weight instead of dividing by zero).
func sqrtf(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Sqrt(x)
}
