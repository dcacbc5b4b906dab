package core

import (
	"readys/internal/nn"
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
// and the adjacency's values by the function nn.NormalizedAdjacency uses
// (nn.NormalizedValues), so the encoder is
// bit-identical to the full rebuild — the equivalence tests enforce this per
// decision. EncodeFault remains the fallback and the oracle.
//
// The returned EncodedState aliases buffers owned by the encoder and is only
// valid until the next Encode call; a recording (training) policy copies what
// it keeps of each into its EpisodeLog before then.
type incrementalEncoder struct {
	w             int
	faultFeatures bool

	// Window validity key.
	valid      bool
	numDone    int
	faultEpoch int

	// Per-graph-epoch caches (-1 = none yet). The descendant features are
	// append-only within an episode — a streaming arrival adds whole
	// components, so what is cached for earlier tasks stays right. They read
	// the graph alone, so when they were built over a frozen graph (statics
	// names it) they stay across episodes for as long as episodes run on that
	// graph.
	graphEpoch int
	maxE       float64
	desc       taskgraph.DescendantAccumulator // F(i), normalised on read
	statics    *taskgraph.Graph                // the frozen graph they describe, or nil

	// BFS scratch and window rows per live task: scratch.Len() is the graph
	// size the caches cover, and scratch.Live(), like desc's, the first task
	// of the oldest job with a ready or running task (State.LiveFrom; 0 in a
	// single-DAG run), below which no window reaches again.
	scratch taskgraph.LiveRows[taskScratch]
	queue   []int

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

// taskScratch is what the encoder keeps per live task.
type taskScratch struct {
	seen  bool  // visited by the running BFS; false between rebuilds
	depth int32 // BFS depth when seen
	row   int32 // 1 + the task's row in the current window, 0 when absent
}

func newIncrementalEncoder(w int, faultFeatures bool) *incrementalEncoder {
	e := &incrementalEncoder{w: w, faultFeatures: faultFeatures}
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
	// The stale window's rows must not leak into the next episode (same task
	// IDs, different graph).
	e.clearRows(e.nodes[e.cur])
	if g == nil || g != e.statics {
		e.statics = nil
		e.desc.Reset()
		e.scratch.Reset()
	}
	e.xEpoch = -1
	e.adjEpoch = -1
	e.nodes[e.cur] = e.nodes[e.cur][:0]
	e.es.Nodes = nil
	e.es.Norm = nil
}

// Encode returns the EncodedState for a decision on the given resource,
// reusing as much of the previous decision's state as the validity key allows,
// and whether it had to recompute the window.
func (e *incrementalEncoder) Encode(s *sim.State, resource int) (es *EncodedState, rebuilt bool) {
	if e.graphEpoch != s.GraphEpoch || e.scratch.Len() != s.Graph.NumTasks() {
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
// one, the one way the earlier rows could go stale. The per-task caches cover
// the live jobs only: finished jobs are retired first, so what must grow is
// sized to the live jobs: doubling, exact on a frozen graph, and never past
// what the graph has room for.
func (e *incrementalEncoder) refreshGraphCaches(s *sim.State) {
	g := s.Graph
	n := g.NumTasks()
	if n < e.scratch.Len() {
		e.reset(nil) // not the graph the caches describe: start over
	}
	e.maxE = s.MaxExpected()
	e.retire(s.LiveFrom())
	e.desc.Extend(g)
	e.scratch.Cover(n, g.Room())
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
	e.retire(s.LiveFrom())
	sc := &e.scratch

	// Multi-source BFS over successors, depth-capped at w. All seeds start at
	// depth 0 and expansion is FIFO, so first-visit depth is minimal and the
	// visited set equals taskgraph.Window's membership.
	q := e.queue[:0]
	for _, t := range s.Running {
		if r := sc.At(t); !r.seen {
			r.seen, r.depth = true, 0
			q = append(q, t)
		}
	}
	for _, t := range s.Ready {
		if r := sc.At(t); !r.seen {
			r.seen, r.depth = true, 0
			q = append(q, t)
		}
	}
	for head := 0; head < len(q); head++ {
		t := q[head]
		d := sc.At(t).depth
		if int(d) == e.w {
			continue
		}
		for _, c := range g.Succ[t] {
			if r := sc.At(c); !r.seen {
				r.seen, r.depth = true, d+1
				q = append(q, c)
			}
		}
	}
	e.queue = q[:0]

	next := 1 - e.cur
	nodes := append(e.nodes[next][:0], q...)
	insertionSortInts(nodes)
	for _, t := range q {
		sc.At(t).seen = false
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
		if r := sc.At(t).row; canCopy && r != 0 {
			copy(rf, oldX.Row(int(r)-1))
		} else {
			for i := range rf {
				rf[i] = 0
			}
			fillStaticTaskFeatures(s, t, e.desc.At(t), e.maxE, rf)
		}
	}

	sameNodes := intsEqual(nodes, e.nodes[e.cur])
	e.clearRows(e.nodes[e.cur])
	for row, t := range nodes {
		sc.At(t).row = int32(row + 1)
	}

	e.nodes[next] = nodes
	e.cur = next
	e.xEpoch = e.graphEpoch
	e.es.Nodes = nodes
	e.es.X = newX

	if !sameNodes || e.adjEpoch != e.graphEpoch {
		e.rebuildAdjacency(g, nodes)
		e.adjEpoch = e.graphEpoch
		e.adjBuilds++
	}
}

// retire drops the per-task caches below from, the first task of the oldest
// job that still has a ready or running task. Every unfinished task has a
// ready or running ancestor-or-self in its own job, and a job's tasks lie
// above every earlier job's, so no window holds a task below from again.
func (e *incrementalEncoder) retire(from int) {
	e.desc.Retire(from)
	e.scratch.Retire(from)
}

// clearRows zeroes the row entries of a stale window's tasks; a retired task
// has none left to clear.
func (e *incrementalEncoder) clearRows(nodes []int) {
	for _, t := range nodes {
		if t >= e.scratch.Live() {
			e.scratch.At(t).row = 0
		}
	}
}

// rebuildAdjacency reconstructs the induced normalized adjacency into the
// encoder-owned CSR buffers. A row's in-window neighbours come in the graph's
// Succ/Pred order, which nothing keeps sorted; a small insertion sort plus
// dedup reproduces nn.adjacencyRows' sorted/deduplicated self-loop rows
// whatever that order, and nn.NormalizedValues fills in the values, as it
// does for nn.NormalizedAdjacency.
func (e *incrementalEncoder) rebuildAdjacency(g *taskgraph.Graph, nodes []int) {
	n := len(nodes)
	rowPtr := e.norm.RowPtr[:0]
	rowPtr = append(rowPtr, 0)
	cols := e.norm.Col[:0]
	for i, t := range nodes {
		nb := e.nbuf[:0]
		nb = append(nb, i) // self-loop
		for _, c := range g.Succ[t] {
			if r := e.scratch.At(c).row; r != 0 {
				nb = append(nb, int(r)-1)
			}
		}
		for _, c := range g.Pred[t] {
			if r := e.scratch.At(c).row; r != 0 {
				nb = append(nb, int(r)-1)
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
	e.norm = tensor.Sparse{Rows: n, Cols: n, RowPtr: rowPtr, Col: cols, Val: vals[:len(cols)]}
	nn.NormalizedValues(&e.norm)
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

// insertionSortInts sorts small int slices in place (window rows and CSR
// rows are tens of elements).
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
