// Package taskgraph models the directed acyclic task graphs scheduled by
// READYS and generates the three tiled dense linear-algebra DAG families the
// paper evaluates on: Cholesky, LU and QR factorisations (§V-A), plus layered
// random DAGs for generality testing.
//
// Each DAG family uses exactly four kernel types (the paper's "small number
// (typically 4) of kernels"); kernels index the per-resource timing tables in
// package platform. The package also computes the per-task descendant-type
// feature F(i) of §III-B and the sliding-window sub-DAG extraction that
// defines the READYS state.
package taskgraph

import (
	"encoding/json"
	"fmt"
	"slices"
)

// Kernel identifies one of the four computational kernels of a DAG family.
// The integer value indexes timing tables; the human-readable name depends on
// the family (e.g. kernel 0 is POTRF for Cholesky, GETRF for LU, GEQRT for QR).
type Kernel int

// NumKernels is the number of kernel types per DAG family.
const NumKernels = 4

// Kind enumerates the DAG families.
type Kind int

// DAG families. Cholesky, LU and QR are the paper's evaluation kernels;
// Gemm, Stencil, ForkJoin and Random are additional families for generality
// testing.
const (
	Cholesky Kind = iota
	LU
	QR
	Random
	Gemm
	Stencil
	ForkJoin
)

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case Cholesky:
		return "cholesky"
	case LU:
		return "lu"
	case QR:
		return "qr"
	case Random:
		return "random"
	case Gemm:
		return "gemm"
	case Stencil:
		return "stencil"
	case ForkJoin:
		return "forkjoin"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindFromString parses a family name as produced by Kind.String.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "cholesky":
		return Cholesky, nil
	case "lu":
		return LU, nil
	case "qr":
		return QR, nil
	case "random":
		return Random, nil
	case "gemm":
		return Gemm, nil
	case "stencil":
		return Stencil, nil
	case "forkjoin":
		return ForkJoin, nil
	default:
		return 0, fmt.Errorf("taskgraph: unknown DAG kind %q", s)
	}
}

// MarshalJSON encodes the family as its name, so serialised specs (fleet
// jobs, checkpoints metadata) read "cholesky" rather than an opaque integer.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses a family name produced by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := KindFromString(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Task is one vertex of the DAG.
type Task struct {
	ID     int
	Kernel Kernel
	// Name is a human-readable label such as "GEMM(3,2,1)".
	Name string
}

// Graph is a directed acyclic task graph. Tasks are identified by their index
// in Tasks; Succ[i] and Pred[i] list the direct successors and predecessors
// of task i.
type Graph struct {
	Kind  Kind
	Tiles int // tile count T for factorisation DAGs, 0 for random DAGs
	Tasks []Task
	Succ  [][]int
	Pred  [][]int

	// KernelNames maps kernel indices to family-specific names.
	KernelNames [NumKernels]string

	// edgeSet is AddEdge's duplicate check. It holds the edges among the tasks
	// from final on only: Append copies adjacency that is already duplicate-
	// free, and Freeze drops the map.
	edgeSet map[[2]int]struct{}
	// final is how many leading tasks take no more edges: those of a frozen
	// graph, and those that arrived through Append.
	final  int
	frozen bool
}

// newGraph allocates an empty graph of the given family.
func newGraph(kind Kind, tiles int, kernelNames [NumKernels]string) *Graph {
	return &Graph{
		Kind:        kind,
		Tiles:       tiles,
		KernelNames: kernelNames,
		edgeSet:     make(map[[2]int]struct{}),
	}
}

// KernelNamesFor returns the names of the family's four kernels, by kernel
// index — what a generated graph of the kind carries as KernelNames.
func KernelNamesFor(kind Kind) [NumKernels]string {
	switch kind {
	case Cholesky:
		return [NumKernels]string{"POTRF", "TRSM", "SYRK", "GEMM"}
	case LU:
		return [NumKernels]string{"GETRF", "TRSM_L", "TRSM_U", "GEMM"}
	case QR:
		return [NumKernels]string{"GEQRT", "ORMQR", "TSQRT", "TSMQR"}
	case Gemm:
		return [NumKernels]string{"LOAD_A", "LOAD_B", "STORE_C", "GEMM"}
	case Stencil:
		return [NumKernels]string{"CORNER", "EDGE_ROW", "EDGE_COL", "INTERIOR"}
	case ForkJoin:
		return [NumKernels]string{"FORK", "WORK", "JOIN", "REDUCE"}
	default:
		return [NumKernels]string{"K0", "K1", "K2", "K3"}
	}
}

// NewCustom returns an empty graph to be populated with AddTask/AddEdge —
// the entry point for scheduling application DAGs that are not one of the
// built-in factorisation families. Kernel indices in the new graph index the
// timing table of the given kind.
func NewCustom(kind Kind, kernelNames [NumKernels]string) *Graph {
	return newGraph(kind, 0, kernelNames)
}

// NewFrozenByKind is NewByKind, frozen: the graph to keep and share when the
// same (kind, T) problem is scheduled many times.
func NewFrozenByKind(kind Kind, T int) *Graph {
	g := NewByKind(kind, T)
	if err := g.Freeze(); err != nil {
		panic(err) // a generator built an invalid graph
	}
	return g
}

// NewFrozen builds, in one pass, the graph that NewCustom, AddTask per task and
// AddEdge per edge in request order would build, and freezes it: task i has
// kernels[i] and names[i], Succ[i] lists i's successors in the order their
// edges come, Pred[j] lists j's predecessors in the order their edges come,
// and of duplicate edges the first is kept. Tasks, Succ and Pred are each
// allocated once, the rows cut from one flat array per direction as Append
// cuts them, and duplicates are found with a per-source stamp instead of a
// map. A kernel out of range, a mismatched names slice, an edge out of range
// and a self-edge panic, as AddTask and AddEdge do; a cycle is an error,
// TopoOrder's.
func NewFrozen(kind Kind, kernelNames [NumKernels]string, kernels []Kernel, names []string, edges [][2]int) (*Graph, error) {
	n := len(kernels)
	if len(names) != n {
		panic(fmt.Sprintf("taskgraph: %d names for %d tasks", len(names), n))
	}
	g := &Graph{Kind: kind, KernelNames: kernelNames, Tasks: make([]Task, n)}
	for i, k := range kernels {
		if k < 0 || k >= NumKernels {
			panic(fmt.Sprintf("taskgraph: kernel %d out of range", k))
		}
		g.Tasks[i] = Task{ID: i, Kernel: k, Name: names[i]}
	}
	// scratch holds at[0..n], where source i's edges start in flat, then a
	// per-task int that is first the dedup stamp and then the Pred cursor.
	scratch := make([]int, 2*n+1)
	at, mark := scratch[:n+1], scratch[n+1:]
	for _, e := range edges {
		from, to := e[0], e[1]
		if from == to {
			panic(fmt.Sprintf("taskgraph: self-edge on task %d", from))
		}
		if from < 0 || from >= n || to < 0 || to >= n {
			panic(fmt.Sprintf("taskgraph: edge (%d,%d) out of range for %d tasks", from, to, n))
		}
		at[from+1]++
	}
	for i := 0; i < n; i++ {
		at[i+1] += at[i]
	}
	// Bucket the targets by source, in request order within a bucket; mark
	// counts each bucket's fill on the way.
	flat := make([]int, len(edges))
	for _, e := range edges {
		flat[at[e[0]]+mark[e[0]]] = e[1]
		mark[e[0]]++
	}
	// Keep each bucket's first edge to a target (mark[to] == from+1 means it
	// was seen from this source) and compact the kept edges to the front.
	clear(mark)
	g.Succ, g.Pred = make([][]int, n), make([][]int, n)
	kept := 0
	for from := 0; from < n; from++ {
		lo := kept
		for _, to := range flat[at[from]:at[from+1]] {
			if mark[to] != from+1 {
				mark[to] = from + 1
				flat[kept] = to
				kept++
			}
		}
		if kept > lo {
			g.Succ[from] = flat[lo:kept:kept]
		}
	}
	// Pred rows, sized by in-degree and cut from one array, filled from the
	// edges in request order. An edge is the first of its pair exactly when
	// its target is the next of its source's Succ row not yet reached.
	indeg := at[:n]
	clear(indeg)
	for _, row := range g.Succ {
		for _, to := range row {
			indeg[to]++
		}
	}
	pred := make([]int, kept)
	for j, k := range indeg {
		if k > 0 {
			g.Pred[j], pred = pred[:0:k], pred[k:]
		}
	}
	next := mark
	clear(next)
	for _, e := range edges {
		from, to := e[0], e[1]
		if row := g.Succ[from]; next[from] < len(row) && row[next[from]] == to {
			next[from]++
			g.Pred[to] = append(g.Pred[to], from)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	g.frozen, g.final = true, n
	return g, nil
}

// Freeze validates the graph and makes it immutable: AddTask, AddEdge and
// Append panic on it from here on. A frozen graph never changes, so it may be
// shared read-only across goroutines, whatever was computed from it (a HEFT
// schedule, descendant features) may be kept beside it for as long as it is,
// and consumers that checked a graph before using it (sim.Cluster.AddJob) take
// it as checked.
func (g *Graph) Freeze() error {
	if g.frozen {
		return nil
	}
	if err := g.Validate(); err != nil {
		return err
	}
	g.frozen, g.final, g.edgeSet = true, len(g.Tasks), nil
	return nil
}

// Frozen reports whether Freeze has succeeded on the graph.
func (g *Graph) Frozen() bool { return g.frozen }

// AddTask appends a task and returns its ID.
func (g *Graph) AddTask(kernel Kernel, name string) int {
	if g.frozen {
		panic("taskgraph: AddTask on a frozen graph")
	}
	if kernel < 0 || kernel >= NumKernels {
		panic(fmt.Sprintf("taskgraph: kernel %d out of range", kernel))
	}
	id := len(g.Tasks)
	g.Tasks = append(g.Tasks, Task{ID: id, Kernel: kernel, Name: name})
	g.Succ = append(g.Succ, nil)
	g.Pred = append(g.Pred, nil)
	return id
}

// AddEdge records the dependency from → to (from must complete before to may
// start). Duplicate edges are ignored; self-edges panic, and so does an edge
// at a task of a frozen graph or one that Append brought in.
func (g *Graph) AddEdge(from, to int) {
	if from == to {
		panic(fmt.Sprintf("taskgraph: self-edge on task %d", from))
	}
	if from < 0 || from >= len(g.Tasks) || to < 0 || to >= len(g.Tasks) {
		panic(fmt.Sprintf("taskgraph: edge (%d,%d) out of range for %d tasks", from, to, len(g.Tasks)))
	}
	if from < g.final || to < g.final {
		panic(fmt.Sprintf("taskgraph: edge (%d,%d) at a task that is final (frozen graph, or appended whole)", from, to))
	}
	if g.edgeSet == nil {
		g.edgeSet = make(map[[2]int]struct{})
	}
	key := [2]int{from, to}
	if _, dup := g.edgeSet[key]; dup {
		return
	}
	g.edgeSet[key] = struct{}{}
	g.Succ[from] = append(g.Succ[from], to)
	g.Pred[to] = append(g.Pred[to], from)
}

// Append adds every task and edge of h as a new component of g: task i of h
// becomes task base+i, named prefix + its name, and base — g's size before the
// call — is returned. The result is the graph that AddTask per task and then
// AddEdge per edge, in Succ order, would have built, row for row; but the
// tasks, Succ and Pred each grow once and the component's adjacency lives in
// one array per direction. h's edges are trusted to be duplicate-free (a
// validated or frozen graph's are) and leave no entry in g's duplicate check;
// the appended tasks take no further edges.
func (g *Graph) Append(h *Graph, prefix string) int {
	if g.frozen {
		panic("taskgraph: Append on a frozen graph")
	}
	base, n, edges := len(g.Tasks), len(h.Tasks), h.NumEdges()
	g.Tasks = slices.Grow(g.Tasks, n)
	for _, t := range h.Tasks {
		g.Tasks = append(g.Tasks, Task{ID: base + t.ID, Kernel: t.Kernel, Name: prefix + t.Name})
	}
	// Rows are cut from the flat arrays at exactly their length, so an append
	// to one could never write into the next. Succ rows are h's, shifted; Pred
	// rows fill in the order AddEdge would have reached them, by source task.
	succ, pred := make([]int, 0, edges), make([]int, edges)
	g.Succ, g.Pred = slices.Grow(g.Succ, n), slices.Grow(g.Pred, n)
	for i := 0; i < n; i++ {
		var srow, prow []int // nil without edges, as AddTask leaves them
		if len(h.Succ[i]) > 0 {
			lo := len(succ)
			for _, to := range h.Succ[i] {
				succ = append(succ, base+to)
			}
			srow = succ[lo:len(succ):len(succ)]
		}
		if k := len(h.Pred[i]); k > 0 {
			prow, pred = pred[:0:k], pred[k:]
		}
		g.Succ, g.Pred = append(g.Succ, srow), append(g.Pred, prow)
	}
	for from, row := range h.Succ {
		for _, to := range row {
			g.Pred[base+to] = append(g.Pred[base+to], base+from)
		}
	}
	g.final = len(g.Tasks)
	return base
}

// Reserve makes room for n more tasks in Tasks, Succ and Pred, so that Appends
// of up to n tasks in all grow none of the three: a caller that knows what a
// graph will hold — a stream's union over its whole arrival list — pays for the
// growth once instead of re-copying the graph so far as it grows. It panics on
// a frozen graph, as Append does.
func (g *Graph) Reserve(n int) {
	if g.frozen {
		panic("taskgraph: Reserve on a frozen graph")
	}
	g.Tasks = slices.Grow(g.Tasks, n)
	g.Succ = slices.Grow(g.Succ, n)
	g.Pred = slices.Grow(g.Pred, n)
}

// NumTasks returns the number of vertices.
func (g *Graph) NumTasks() int { return len(g.Tasks) }

// NumEdges returns the number of dependency edges.
func (g *Graph) NumEdges() int {
	var n int
	for _, s := range g.Succ {
		n += len(s)
	}
	return n
}

// Roots returns the tasks with no predecessors, in ID order.
func (g *Graph) Roots() []int {
	var roots []int
	for i := range g.Tasks {
		if len(g.Pred[i]) == 0 {
			roots = append(roots, i)
		}
	}
	return roots
}

// TopoOrder returns a topological ordering of the tasks, or an error if the
// graph contains a cycle (Kahn's algorithm; ties broken by smallest ID for
// determinism).
func (g *Graph) TopoOrder() ([]int, error) {
	n := g.NumTasks()
	indeg := make([]int, n)
	for i := range g.Pred {
		indeg[i] = len(g.Pred[i])
	}
	// The frontier is a binary min-heap on task ID kept in place in one slice:
	// popping the smallest ID keeps the order deterministic at O(log F) per
	// task. Filled in ascending order, it starts out a valid heap.
	frontier := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	order := make([]int, 0, n)
	for len(frontier) > 0 {
		next := frontier[0]
		last := len(frontier) - 1
		frontier[0] = frontier[last]
		frontier = frontier[:last]
		siftDown(frontier, 0)
		order = append(order, next)
		for _, s := range g.Succ[next] {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
				siftUp(frontier, len(frontier)-1)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("taskgraph: graph has a cycle (%d of %d tasks ordered)", len(order), n)
	}
	return order, nil
}

// siftDown restores the min-heap property of h below index i.
func siftDown(h []int, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// siftUp restores the min-heap property of h above index i.
func siftUp(h []int, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// ReverseTopoFrom orders the tasks lo..NumTasks()-1 so that every task comes
// after all of its successors, in O(tasks + edges) of that suffix alone. It is
// for graphs that grow by appending whole components — a stream's union DAG
// under sim.Cluster.AddJob — where what was computed for the tasks below lo
// stays final. An edge between the suffix and an earlier task, or a cycle in
// the suffix, is an error.
func (g *Graph) ReverseTopoFrom(lo int) ([]int, error) {
	n := g.NumTasks() - lo
	left := make([]int32, n) // successors not yet ordered
	order := make([]int, 0, n)
	for i := range left {
		left[i] = int32(len(g.Succ[lo+i]))
		if left[i] == 0 {
			order = append(order, lo+i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, p := range g.Pred[order[head]] {
			if p < lo {
				return nil, fmt.Errorf("taskgraph: edge (%d,%d) joins an appended task to an earlier one (tasks before %d are final)", p, order[head], lo)
			}
			if left[p-lo]--; left[p-lo] == 0 {
				order = append(order, p)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("taskgraph: tasks from %d on have a cycle or a successor before %d (%d of %d ordered)", lo, lo, len(order), n)
	}
	return order, nil
}

// Validate checks structural soundness: edge endpoints in range, Succ/Pred
// consistency, no duplicate edges, acyclicity.
func (g *Graph) Validate() error {
	n := g.NumTasks()
	if len(g.Succ) != n || len(g.Pred) != n {
		return fmt.Errorf("taskgraph: adjacency size mismatch")
	}
	seen := make([]int, n) // seen[j] == i+1: edge (i,j) came earlier in Succ[i]
	for i, succ := range g.Succ {
		for _, j := range succ {
			if j < 0 || j >= n {
				return fmt.Errorf("taskgraph: successor %d of task %d out of range", j, i)
			}
			if seen[j] == i+1 {
				return fmt.Errorf("taskgraph: duplicate edge (%d,%d)", i, j)
			}
			seen[j] = i + 1
			if !contains(g.Pred[j], i) {
				return fmt.Errorf("taskgraph: edge (%d,%d) missing from Pred", i, j)
			}
		}
	}
	for j, pred := range g.Pred {
		for _, i := range pred {
			if !contains(g.Succ[i], j) {
				return fmt.Errorf("taskgraph: pred edge (%d,%d) missing from Succ", i, j)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
