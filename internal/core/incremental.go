package core

import (
	"math"

	"readys/internal/sim"
	"readys/internal/taskgraph"
	"readys/internal/tensor"
)

// incrementalEncoder maintains the EncodedState across the decisions of one
// episode instead of rebuilding it from scratch each time (EncodeFault).
//
// Validity is keyed on (NumDone, FaultEpoch, GraphEpoch): within one key the
// window membership is invariant — decisions only move tasks from Ready to
// Running, and the window BFS seeds from their union — so the node list, the
// normalized adjacency, and the static feature columns all carry over, and
// only the decision-varying columns (ready/running/remaining plus the
// broadcast resource context) are rewritten. When the key moves (a completion,
// a fault, or a streaming arrival) the window is recomputed with reused
// scratch, unchanged static rows are copied from the previous buffer, and the
// adjacency is rebuilt only if the node set actually changed.
//
// Every feature value is produced by the same fill helpers EncodeFault uses
// and the adjacency by the same formulas as nn.NormalizedAdjacency /
// nn.DirectedNormalizedAdjacency, so the encoder is bit-identical to the full
// rebuild — the equivalence tests enforce this per decision. EncodeFault
// remains the fallback and the oracle.
//
// The returned EncodedState aliases buffers owned by the encoder and is only
// valid until the next Encode call; a recording (training) policy copies what
// it keeps of each into its EpisodeLog before then.
type incrementalEncoder struct {
	w             int
	directed      bool
	faultFeatures bool

	// Window validity key.
	valid      bool
	numDone    int
	faultEpoch int

	// Per-graph-epoch caches (-1 = none yet). The per-task ones are
	// append-only within an episode — a streaming arrival adds whole
	// components, so what is cached for earlier tasks stays right — and
	// len(sortedSucc) is how many tasks they cover. They read the graph alone,
	// so when they were built over a frozen graph (statics names it) they stay
	// across episodes for as long as episodes run on that graph.
	graphEpoch int
	maxE       float64
	sortedSucc [][]int
	sortedPred [][]int
	desc       taskgraph.DescendantAccumulator // F(i), normalised on read
	statics    *taskgraph.Graph                // the frozen graph they describe, or nil

	// BFS scratch indexed by task ID. seen is all-false between rebuilds.
	seen  []bool
	depth []int32
	queue []int

	// rowOf[t] is 1 + the row of task t in the current window, 0 when absent.
	rowOf []int32

	// Double-buffered node lists and feature matrices: rebuilds fill the spare
	// buffer (copying unchanged static rows from the active one) and flip.
	nodes  [2][]int
	x      [2]tensor.Matrix
	cur    int
	xEpoch int // graph epoch the active buffer's static rows were filled at

	// Owned CSR adjacency buffers backing es.Norm; adjBuilds counts how many
	// times they were rebuilt rather than carried over.
	norm      tensor.Sparse
	adjEpoch  int
	adjBuilds int
	nbuf      []int

	es EncodedState
}

func newIncrementalEncoder(w int, directed, faultFeatures bool) *incrementalEncoder {
	e := &incrementalEncoder{w: w, directed: directed, faultFeatures: faultFeatures}
	e.es.Proc = tensor.New(1, ProcFeatureWidth(faultFeatures))
	e.reset(nil)
	return e
}

// reset invalidates everything that depends on the episode; called at episode
// boundaries with the graph the next one runs on (nil when unknown). The
// per-task graph caches survive only when that is the frozen graph they were
// built over.
func (e *incrementalEncoder) reset(g *taskgraph.Graph) {
	e.valid = false
	e.graphEpoch = -1
	if g == nil || g != e.statics {
		e.statics = nil
		e.sortedSucc = e.sortedSucc[:0] // rows stay in the backing array for reuse
		e.sortedPred = e.sortedPred[:0]
		e.desc.Reset()
	}
	e.xEpoch = -1
	e.adjEpoch = -1
	// rowOf entries for the stale window must not leak into the next episode
	// (same task IDs, different graph).
	for _, t := range e.nodes[e.cur] {
		if t < len(e.rowOf) {
			e.rowOf[t] = 0
		}
	}
	e.nodes[e.cur] = e.nodes[e.cur][:0]
	e.es.Nodes = nil
	e.es.Norm = nil
}

// Encode returns the EncodedState for a decision on the given resource,
// reusing as much of the previous decision's state as the validity key allows,
// and whether it had to recompute the window.
func (e *incrementalEncoder) Encode(s *sim.State, resource int) (es *EncodedState, rebuilt bool) {
	if e.graphEpoch != s.GraphEpoch || len(e.seen) != s.Graph.NumTasks() {
		e.refreshGraphCaches(s)
	}
	if !e.valid || e.numDone != s.NumDone || e.faultEpoch != s.FaultEpoch {
		e.rebuildWindow(s)
		e.valid, e.numDone, e.faultEpoch = true, s.NumDone, s.FaultEpoch
		rebuilt = true
	}

	// Decision-varying refresh: the resource context, the ready/running
	// columns, and the broadcast block of every row.
	es = &e.es
	fillProcVector(s, resource, e.maxE, len(es.Nodes), e.faultFeatures, es.Proc.Data)
	es.ReadyRows = es.ReadyRows[:0]
	es.ReadyTasks = es.ReadyTasks[:0]
	x := &e.x[e.cur]
	for row, t := range es.Nodes {
		rf := x.Row(row)
		if fillDynamicTaskFeatures(s, t, e.maxE, rf) {
			es.ReadyRows = append(es.ReadyRows, row)
			es.ReadyTasks = append(es.ReadyTasks, t)
		}
		copy(rf[numTaskFeatures:], es.Proc.Data)
	}
	es.AllowIdle = !s.MustAct
	return es, rebuilt
}

// refreshGraphCaches brings everything derived from the graph topology and
// timing tables up to date: called on the first decision and after each
// GraphEpoch bump (streaming arrival). Only the tasks added since the last call
// are visited, so an arrival costs its own job rather than the stream so far;
// desc.Extend panics should an appended task ever share an edge with a cached
// one, the one way the earlier rows could go stale.
func (e *incrementalEncoder) refreshGraphCaches(s *sim.State) {
	g := s.Graph
	n := g.NumTasks()
	if n < len(e.sortedSucc) {
		e.reset(nil) // not the graph the caches describe: start over
	}
	e.maxE = s.MaxExpected()
	e.desc.Extend(g)
	lo := len(e.sortedSucc)
	e.sortedSucc = growTo(e.sortedSucc, n)
	e.sortedPred = growTo(e.sortedPred, n)
	for t := lo; t < n; t++ {
		e.sortedSucc[t] = appendSortedInts(e.sortedSucc[t][:0], g.Succ[t])
		e.sortedPred[t] = appendSortedInts(e.sortedPred[t][:0], g.Pred[t])
	}
	e.seen = growTo(e.seen, n)
	e.depth = growTo(e.depth, n)
	e.rowOf = growTo(e.rowOf, n)
	e.graphEpoch = s.GraphEpoch
	e.es.graphEpoch = s.GraphEpoch
	e.valid = false
	if g.Frozen() {
		e.statics = g
	}
}

// rebuildWindow recomputes the window node set (same membership as
// taskgraph.Window), refills or copies the static feature rows, and rebuilds
// the induced adjacency when the node set changed.
func (e *incrementalEncoder) rebuildWindow(s *sim.State) {
	g := s.Graph

	// Multi-source BFS over successors, depth-capped at w. All seeds start at
	// depth 0 and expansion is FIFO, so first-visit depth is minimal and the
	// visited set equals taskgraph.Window's membership.
	q := e.queue[:0]
	for _, t := range s.Running {
		if !e.seen[t] {
			e.seen[t] = true
			e.depth[t] = 0
			q = append(q, t)
		}
	}
	for _, t := range s.Ready {
		if !e.seen[t] {
			e.seen[t] = true
			e.depth[t] = 0
			q = append(q, t)
		}
	}
	for head := 0; head < len(q); head++ {
		t := q[head]
		d := e.depth[t]
		if int(d) == e.w {
			continue
		}
		for _, c := range g.Succ[t] {
			if !e.seen[c] {
				e.seen[c] = true
				e.depth[c] = d + 1
				q = append(q, c)
			}
		}
	}
	e.queue = q[:0]

	next := 1 - e.cur
	nodes := append(e.nodes[next][:0], q...)
	insertionSortInts(nodes)
	for _, t := range q {
		e.seen[t] = false
	}

	// Static rows: copy rows whose task already had a row at this graph epoch,
	// fill the rest fresh.
	width := numTaskFeatures + ProcFeatureWidth(e.faultFeatures)
	newX := &e.x[next]
	resizeMatrix(newX, len(nodes), width)
	oldX := &e.x[e.cur]
	canCopy := e.xEpoch == e.graphEpoch
	for row, t := range nodes {
		rf := newX.Row(row)
		if canCopy && e.rowOf[t] != 0 {
			copy(rf, oldX.Row(int(e.rowOf[t])-1))
		} else {
			for i := range rf {
				rf[i] = 0
			}
			fillStaticTaskFeatures(s, t, e.desc.At(t), e.maxE, rf)
		}
	}

	sameNodes := intsEqual(nodes, e.nodes[e.cur])
	for _, t := range e.nodes[e.cur] {
		e.rowOf[t] = 0
	}
	for row, t := range nodes {
		e.rowOf[t] = int32(row + 1)
	}

	e.nodes[next] = nodes
	e.cur = next
	e.xEpoch = e.graphEpoch
	e.es.Nodes = nodes
	e.es.X = newX

	if !sameNodes || e.adjEpoch != e.graphEpoch {
		e.rebuildAdjacency(nodes)
		e.adjEpoch = e.graphEpoch
		e.adjBuilds++
	}
}

// rebuildAdjacency reconstructs the induced normalized adjacency into the
// encoder-owned CSR buffers. Window rows are sorted by task ID and the cached
// neighbour lists are sorted too, so induced column indices arrive almost
// sorted; a small insertion sort plus dedup reproduces nn.adjacencyRows'
// sorted/deduplicated self-loop rows, and the value formulas match
// nn.NormalizedAdjacency / nn.DirectedNormalizedAdjacency exactly.
func (e *incrementalEncoder) rebuildAdjacency(nodes []int) {
	n := len(nodes)
	rowPtr := e.norm.RowPtr[:0]
	rowPtr = append(rowPtr, 0)
	cols := e.norm.Col[:0]
	for i, t := range nodes {
		nb := e.nbuf[:0]
		nb = append(nb, i) // self-loop
		for _, c := range e.sortedSucc[t] {
			if r := e.rowOf[c]; r != 0 {
				nb = append(nb, int(r)-1)
			}
		}
		if !e.directed {
			for _, c := range e.sortedPred[t] {
				if r := e.rowOf[c]; r != 0 {
					nb = append(nb, int(r)-1)
				}
			}
		}
		insertionSortInts(nb)
		w := 0
		for k, v := range nb {
			if k == 0 || v != nb[w-1] {
				nb[w] = v
				w++
			}
		}
		cols = append(cols, nb[:w]...)
		rowPtr = append(rowPtr, len(cols))
		e.nbuf = nb[:0]
	}

	vals := e.norm.Val
	if cap(vals) < len(cols) {
		vals = make([]float64, len(cols))
	}
	vals = vals[:len(cols)]
	if e.directed {
		for i := 0; i < n; i++ {
			d := float64(rowPtr[i+1] - rowPtr[i])
			v := 1 / d
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				vals[k] = v
			}
		}
	} else {
		for i := 0; i < n; i++ {
			di := float64(rowPtr[i+1] - rowPtr[i])
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				j := cols[k]
				dj := float64(rowPtr[j+1] - rowPtr[j])
				vals[k] = 1 / math.Sqrt(di*dj)
			}
		}
	}
	e.norm = tensor.Sparse{Rows: n, Cols: n, RowPtr: rowPtr, Col: cols, Val: vals}
	e.es.Norm = &e.norm
}

// resizeMatrix reshapes m reusing its backing slice; contents unspecified.
func resizeMatrix(m *tensor.Matrix, rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
}

// growTo returns xs at length n with its contents kept. The first build is
// sized exactly — a trainer's policy only ever sees one graph size, so slack
// there is allocated and never used — and later growth doubles, so the appends
// of a stream, or a lease's next bigger request, copy amortised O(new tasks).
func growTo[T any](xs []T, n int) []T {
	if n <= cap(xs) {
		return xs[:n]
	}
	out := make([]T, n, max(n, 2*cap(xs)))
	copy(out, xs)
	return out
}

func appendSortedInts(dst, src []int) []int {
	dst = append(dst, src...)
	insertionSortInts(dst)
	return dst
}

// insertionSortInts sorts small int slices in place (window rows and
// neighbour lists are tens of elements).
func insertionSortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
