package taskgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// topoOrderSortEveryPop is the TopoOrder this package shipped before the
// frontier became a heap: Kahn's algorithm re-sorting the frontier on every
// pop. Smallest-ID-first is a total order, so the heap must emit exactly this.
func topoOrderSortEveryPop(g *Graph) ([]int, error) {
	n := g.NumTasks()
	indeg := make([]int, n)
	for i := range g.Pred {
		indeg[i] = len(g.Pred[i])
	}
	frontier := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	order := make([]int, 0, n)
	for len(frontier) > 0 {
		sort.Ints(frontier)
		next := frontier[0]
		frontier = frontier[1:]
		order = append(order, next)
		for _, s := range g.Succ[next] {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("taskgraph: graph has a cycle (%d of %d tasks ordered)", len(order), n)
	}
	return order, nil
}

// relabelled returns g with its task IDs shuffled, so edges no longer run from
// lower to higher IDs as every generator in this package builds them.
func relabelled(g *Graph, rng *rand.Rand) *Graph {
	perm := rng.Perm(g.NumTasks())
	inv := make([]int, len(perm))
	for old, id := range perm {
		inv[id] = old
	}
	out := newGraph(g.Kind, g.Tiles, g.KernelNames)
	for _, old := range inv {
		out.AddTask(g.Tasks[old].Kernel, g.Tasks[old].Name)
	}
	for from, succ := range g.Succ {
		for _, to := range succ {
			out.AddEdge(perm[from], perm[to])
		}
	}
	return out
}

// appendJob adds job to union as sim.Cluster.AddJob does: its tasks in ID
// order, then its edges in Succ order, all offset by the union's size.
func appendJob(union, job *Graph) {
	base := union.NumTasks()
	for _, t := range job.Tasks {
		union.AddTask(t.Kernel, t.Name)
	}
	for from, succ := range job.Succ {
		for _, to := range succ {
			union.AddEdge(base+from, base+to)
		}
	}
}

// randomJob draws one job of a mixed-family stream. Small factorisations lack
// kernels (Cholesky T=1 is a lone POTRF, T=2 has no GEMM), which is what
// leaves a normaliser component at zero.
func randomJob(rng *rand.Rand) *Graph {
	var g *Graph
	switch rng.Intn(5) {
	case 0:
		g = NewCholesky(1 + rng.Intn(4))
	case 1:
		g = NewLU(1 + rng.Intn(3))
	case 2:
		g = NewQR(1 + rng.Intn(3))
	case 3:
		g = NewForkJoin(1+rng.Intn(2), 1+rng.Intn(4))
	default:
		g = NewLayeredRandom(rng, RandomConfig{
			Layers: 1 + rng.Intn(5), WidthMin: 1, WidthMax: 1 + rng.Intn(5),
			EdgeProb: rng.Float64() * 0.6, LongEdgeProb: rng.Float64() * 0.3,
		})
	}
	if rng.Intn(2) == 0 {
		g = relabelled(g, rng)
	}
	return g
}

func newUnion() *Graph { return NewCustom(Random, [NumKernels]string{"a", "b", "c", "d"}) }

func TestTopoOrderMatchesSortEveryPop(t *testing.T) {
	check := func(g *Graph) error {
		want, wantErr := topoOrderSortEveryPop(g)
		got, gotErr := g.TopoOrder()
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			return fmt.Errorf("%d tasks ordered, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("order[%d] = %d, reference %d", i, got[i], want[i])
			}
		}
		return nil
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// A multi-root union of relabelled jobs: a wide frontier whose pushes
		// arrive out of ID order.
		union := newUnion()
		for j := 1 + rng.Intn(8); j > 0; j-- {
			appendJob(union, randomJob(rng))
		}
		if err := check(union); err != nil {
			t.Logf("seed %d, acyclic union: %v", seed, err)
			return false
		}
		// Close a cycle through a random edge's endpoints.
		var edges [][2]int
		for from, succ := range union.Succ {
			for _, to := range succ {
				edges = append(edges, [2]int{from, to})
			}
		}
		if len(edges) == 0 {
			return true
		}
		e := edges[rng.Intn(len(edges))]
		union.AddEdge(e[1], e[0])
		if _, err := union.TopoOrder(); err == nil {
			t.Logf("seed %d: cycle through (%d,%d) not detected", seed, e[0], e[1])
			return false
		}
		if err := check(union); err != nil {
			t.Logf("seed %d, cyclic union: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{newUnion(), NewCholesky(6), NewLU(5), NewQR(5), NewGemm(3), NewStencil(5)} {
		if err := check(g); err != nil {
			t.Fatalf("%v T=%d: %v", g.Kind, g.Tiles, err)
		}
	}
}

func TestReverseTopoFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	union := newUnion()
	for j := 0; j < 20; j++ {
		lo := union.NumTasks()
		appendJob(union, randomJob(rng))
		order, err := union.ReverseTopoFrom(lo)
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != union.NumTasks()-lo {
			t.Fatalf("job %d: %d of %d appended tasks ordered", j, len(order), union.NumTasks()-lo)
		}
		pos := make(map[int]int, len(order))
		for p, id := range order {
			if id < lo {
				t.Fatalf("job %d: earlier task %d in the order", j, id)
			}
			pos[id] = p
		}
		for _, i := range order {
			for _, c := range union.Succ[i] {
				if pos[c] >= pos[i] {
					t.Fatalf("job %d: task %d ordered before its successor %d", j, i, c)
				}
			}
		}
	}

	// Anything but a self-contained acyclic suffix is refused.
	lo := union.NumTasks()
	appendJob(union, NewCholesky(3))
	broken := func(from, to int) *Graph {
		g := newUnion()
		appendJob(g, union)
		g.AddEdge(from, to)
		return g
	}
	for name, g := range map[string]*Graph{
		"edge from an earlier task": broken(0, lo+1),
		"edge to an earlier task":   broken(lo+1, 0),
		"cycle":                     broken(union.NumTasks()-1, lo),
	} {
		if _, err := g.ReverseTopoFrom(lo); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDescendantAccumulatorMatchesOracle appends 1–30 random mixed-family jobs
// one at a time and requires, after every append and for every task of the
// union so far, the accumulator's F(t) to equal DescendantFeatures over the
// union bit for bit — new tasks, old tasks under the grown normaliser, and
// kernel types no job has used yet.
func TestDescendantAccumulatorMatchesOracle(t *testing.T) {
	var acc DescendantAccumulator // reused across streams: Reset must not leak rows
	zeroNorm := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		acc.Reset()
		union := newUnion()
		for j, jobs := 0, 1+rng.Intn(30); j < jobs; j++ {
			appendJob(union, randomJob(rng))
			acc.Extend(union)
			want := DescendantFeatures(union)
			for i, row := range want {
				got := acc.At(i)
				for k := range row {
					if math.Float64bits(got[k]) != math.Float64bits(row[k]) {
						t.Logf("seed %d after job %d: F(%d)[%d] = %v, oracle %v", seed, j, i, k, got[k], row[k])
						return false
					}
				}
			}
			if counts := union.KernelCounts(); counts[0]*counts[1]*counts[2]*counts[3] == 0 {
				zeroNorm++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if zeroNorm == 0 {
		t.Fatal("no union lacked a kernel type: the zero-normaliser branch went untested")
	}
}

func TestDescendantAccumulatorRejectsCrossEdge(t *testing.T) {
	union := newUnion()
	appendJob(union, NewCholesky(2))
	var acc DescendantAccumulator
	acc.Extend(union)
	lo := union.NumTasks()
	appendJob(union, NewCholesky(2))
	union.AddEdge(0, lo)
	defer func() {
		if recover() == nil {
			t.Fatal("an appended task depending on a finalised one did not panic")
		}
	}()
	acc.Extend(union)
}
