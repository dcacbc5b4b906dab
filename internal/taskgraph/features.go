package taskgraph

// DescendantFeatures computes the per-task descendant-type summary F(i) of
// §III-B. The unnormalised form is defined recursively over successors:
//
//	F̄(i) = onehot(type(i)) + Σ_{c ∈ S(i)} F̄(c) / |P(c)|
//
// and F(i) = F̄(i) / F̄(root), componentwise. Splitting each child's vector
// across its |P(c)| parents makes Σ over the roots of each component equal to
// the number of tasks of that type, so F(root) is the all-ones vector and
// every F(i) component lies in [0, 1]: F(i) measures which fraction of the
// remaining work of each kernel type flows through task i.
//
// For graphs with several roots the normaliser is the componentwise sum of
// F̄ over all roots (which equals F̄(root) when the root is unique).
// Components whose normaliser is zero (no task of that type) are zero.
//
// The result is an NumTasks x NumKernels row-major matrix flattened as
// [][NumKernels]float64.
func DescendantFeatures(g *Graph) [][NumKernels]float64 {
	n := g.NumTasks()
	raw := make([][NumKernels]float64, n)
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	// Reverse topological order: successors are finalised before their
	// predecessors.
	for idx := n - 1; idx >= 0; idx-- {
		i := order[idx]
		raw[i][g.Tasks[i].Kernel] += 1
		for _, c := range g.Succ[i] {
			share := 1.0 / float64(len(g.Pred[c]))
			for k := 0; k < NumKernels; k++ {
				raw[i][k] += float64(raw[c][k] * share)
			}
		}
	}
	var norm [NumKernels]float64
	for _, r := range g.Roots() {
		for k := 0; k < NumKernels; k++ {
			norm[k] += raw[r][k]
		}
	}
	out := make([][NumKernels]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < NumKernels; k++ {
			if norm[k] > 0 {
				out[i][k] = raw[i][k] / norm[k]
			}
		}
	}
	return out
}

// DescendantAccumulator maintains DescendantFeatures of a graph that grows
// only by appending whole components, at the cost of the appended tasks
// rather than of the whole graph. It rests on two facts about such growth.
// F̄(i) reads only i's own component, so it is final once computed, and a new
// component's F̄ needs that component alone. The normaliser is a left-to-right
// sum over the roots in ID order, which appending roots merely continues. At
// therefore returns, bit for bit, the row DescendantFeatures would compute
// over the graph as last extended — including for earlier tasks, whose F
// shrinks as the normaliser grows.
//
// The zero value is ready to use.
type DescendantAccumulator struct {
	raw  [][NumKernels]float64 // F̄ per task
	norm [NumKernels]float64   // Σ F̄ over the roots seen so far
}

// Reset forgets every task, keeping the storage for the next graph.
func (a *DescendantAccumulator) Reset() {
	a.raw = a.raw[:0]
	a.norm = [NumKernels]float64{}
}

// Extend takes in the tasks g gained since the last call (all of them after
// Reset). It panics if one of them shares an edge with an earlier task, which
// would change values already handed out.
func (a *DescendantAccumulator) Extend(g *Graph) {
	lo, n := len(a.raw), g.NumTasks()
	if lo >= n {
		return
	}
	order, err := g.ReverseTopoFrom(lo)
	if err != nil {
		panic(err)
	}
	if n <= cap(a.raw) {
		a.raw = a.raw[:n]
	} else {
		// Exact on the first build (a single-DAG episode never grows), then
		// doubling so a stream's appends stay amortised O(job).
		grown := make([][NumKernels]float64, n, max(n, 2*cap(a.raw)))
		copy(grown, a.raw)
		a.raw = grown
	}
	// Same arithmetic, in the same order per task, as DescendantFeatures.
	for _, i := range order {
		var f [NumKernels]float64
		f[g.Tasks[i].Kernel] = 1
		for _, c := range g.Succ[i] {
			share := 1.0 / float64(len(g.Pred[c]))
			for k := 0; k < NumKernels; k++ {
				f[k] += float64(a.raw[c][k] * share)
			}
		}
		a.raw[i] = f
	}
	for r := lo; r < n; r++ {
		if len(g.Pred[r]) == 0 {
			for k := 0; k < NumKernels; k++ {
				a.norm[k] += a.raw[r][k]
			}
		}
	}
}

// At returns F(t) under the current normaliser.
func (a *DescendantAccumulator) At(t int) [NumKernels]float64 {
	var f [NumKernels]float64
	for k := 0; k < NumKernels; k++ {
		if a.norm[k] > 0 {
			f[k] = a.raw[t][k] / a.norm[k]
		}
	}
	return f
}

// Window returns the sub-DAG retained in the READYS state (§III-B): the
// running tasks, the ready tasks, and every descendant of a running or ready
// task whose depth is at most w, where the depth of a descendant is the
// minimum length over paths from any running/ready task to it.
//
// The result is sorted by task ID. w = 0 keeps only running and ready tasks.
func Window(g *Graph, running, ready []int, w int) []int {
	type qitem struct {
		task  int
		depth int
	}
	depth := make(map[int]int)
	queue := make([]qitem, 0, len(running)+len(ready))
	for _, t := range running {
		depth[t] = 0
		queue = append(queue, qitem{t, 0})
	}
	for _, t := range ready {
		depth[t] = 0
		queue = append(queue, qitem{t, 0})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.depth == w {
			continue
		}
		for _, s := range g.Succ[it.task] {
			if d, seen := depth[s]; !seen || it.depth+1 < d {
				depth[s] = it.depth + 1
				queue = append(queue, qitem{s, it.depth + 1})
			}
		}
	}
	out := make([]int, 0, len(depth))
	for t := range depth {
		out = append(out, t)
	}
	sortInts(out)
	return out
}

// sortInts is a small insertion/quick hybrid avoiding the sort import here;
// window sets are small (tens of tasks).
func sortInts(xs []int) {
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
