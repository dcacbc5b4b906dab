package taskgraph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
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
	layered := NewLayeredRandom(rand.New(rand.NewSource(3)), DefaultRandomConfig())
	for _, g := range []*Graph{newUnion(), NewCholesky(6), NewLU(5), NewQR(5), layered} {
		if err := check(g); err != nil {
			t.Fatalf("%v T=%d: %v", g.Kind, g.Tiles, err)
		}
	}
}

// TestReverseTopoFrom orders each job of a union grown by Append, as a
// stream's cluster grows it, right after the job is appended. Append is held
// to the task-by-task union it replaced in sim.Cluster.AddJob (appendJob):
// the job lands at the union's old size, and the union's Tasks, Succ and Pred
// rows equal AddTask and AddEdge's, row for row — whether the job graph is
// frozen or not, and with relabelled jobs whose edges run against ID order. A
// task's name is the job's own string, not a copy.
func TestReverseTopoFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	union, slow := newUnion(), newUnion()
	var order []int // each job is ordered in the array the last one was
	for j := 0; j < 20; j++ {
		lo := union.NumTasks()
		job := randomJob(rng)
		if j%2 == 0 {
			if err := job.Freeze(); err != nil {
				t.Fatal(err)
			}
		}
		if base := union.Append(job); base != lo {
			t.Fatalf("job %d appended at %d, want %d", j, base, lo)
		}
		appendJob(slow, job)
		if !reflect.DeepEqual(union.Tasks, slow.Tasks) || !reflect.DeepEqual(union.Succ, slow.Succ) || !reflect.DeepEqual(union.Pred, slow.Pred) {
			t.Fatalf("job %d: the appended rows differ from the AddTask/AddEdge ones", j)
		}
		for i, task := range job.Tasks {
			if got := union.Tasks[lo+i].Name; unsafe.StringData(got) != unsafe.StringData(task.Name) {
				t.Fatalf("job %d task %d: the union copied the name %q", j, i, got)
			}
		}
		var err error
		order, err = union.ReverseTopoFrom(lo, order)
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

	if err := union.Validate(); err != nil {
		t.Fatal(err)
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
		if _, err := g.ReverseTopoFrom(lo, nil); err == nil {
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
			if counts := kernelCounts(union); counts[0]*counts[1]*counts[2]*counts[3] == 0 {
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

// TestDescendantAccumulatorRetireMatchesOracle interleaves Extend and Retire
// at random over a growing union of frozen Cholesky, LU and QR jobs, as a
// stream's policy does when jobs arrive and finish. After every step, for
// every task from the retire point on, F(t) must equal DescendantFeatures over
// the whole union bit for bit: the normaliser still sums every root ever seen.
// The slab must compact once half of it is retired and hold at most twice the
// most rows ever live, however long the union grows.
func TestDescendantAccumulatorRetireMatchesOracle(t *testing.T) {
	kinds := []Kind{Cholesky, LU, QR}
	var acc DescendantAccumulator // reused across unions, as Reset keeps its storage
	peak := 0                     // the most rows ever live
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		acc.Reset()
		union := newUnion()
		from := 0
		for step, steps := 0, 20+rng.Intn(60); step < steps; step++ {
			if rng.Intn(3) > 0 {
				union.Append(NewFrozenByKind(kinds[rng.Intn(len(kinds))], 1+rng.Intn(4)))
				acc.Extend(union)
			} else {
				from += rng.Intn(union.NumTasks() - from + 1)
				acc.Retire(from)
			}
			n := union.NumTasks()
			peak = max(peak, n-from)
			want := DescendantFeatures(union)
			for i := from; i < n; i++ {
				got := acc.At(i)
				for k := range want[i] {
					if math.Float64bits(got[k]) != math.Float64bits(want[i][k]) {
						t.Logf("seed %d step %d (retired below %d): F(%d)[%d] = %v, oracle %v", seed, step, from, i, k, got[k], want[i][k])
						return false
					}
				}
			}
			raw := &acc.raw
			if raw.Live() != from || raw.Len() != n {
				t.Logf("seed %d step %d: rows cover [%d, %d), want [%d, %d)", seed, step, raw.Live(), raw.Len(), from, n)
				return false
			}
			if dead := raw.live - raw.lo; dead > 0 && 2*dead >= len(raw.rows) {
				t.Logf("seed %d step %d: %d of %d rows retired and not compacted", seed, step, dead, len(raw.rows))
				return false
			}
			if acc.Held() > 2*peak {
				t.Logf("seed %d step %d: %d rows held, at most %d ever live", seed, step, acc.Held(), peak)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
