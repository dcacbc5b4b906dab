package taskgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddTaskAndEdge(t *testing.T) {
	g := newGraph(Random, 0, [NumKernels]string{"a", "b", "c", "d"})
	a := g.AddTask(0, "A")
	b := g.AddTask(1, "B")
	g.AddEdge(a, b)
	g.AddEdge(a, b) // duplicate ignored
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (dup must be ignored)", g.NumEdges())
	}
	if len(g.Succ[a]) != 1 || g.Succ[a][0] != b || len(g.Pred[b]) != 1 || g.Pred[b][0] != a {
		t.Fatal("adjacency wrong")
	}
}

func TestSelfEdgePanics(t *testing.T) {
	g := newGraph(Random, 0, [NumKernels]string{"a", "b", "c", "d"})
	a := g.AddTask(0, "A")
	defer func() {
		if recover() == nil {
			t.Fatal("self edge should panic")
		}
	}()
	g.AddEdge(a, a)
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := NewCholesky(5)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.NumTasks())
	for p, id := range order {
		pos[id] = p
	}
	for i, succ := range g.Succ {
		for _, j := range succ {
			if pos[i] >= pos[j] {
				t.Fatalf("edge (%d,%d) violated by topo order", i, j)
			}
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := newGraph(Random, 0, [NumKernels]string{"a", "b", "c", "d"})
	a := g.AddTask(0, "A")
	b := g.AddTask(0, "B")
	c := g.AddTask(0, "C")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, a)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must reject cycles")
	}
}

func TestRootsAndSinks(t *testing.T) {
	g := NewCholesky(4)
	roots := g.Roots()
	if len(roots) != 1 || g.Tasks[roots[0]].Name != "POTRF(0)" {
		t.Fatalf("Cholesky root = %v", roots)
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || g.Tasks[sinks[0]].Name != "POTRF(3)" {
		t.Fatalf("Cholesky sink = %v (names %v)", sinks, taskNames(g, sinks))
	}
}

func TestCriticalPathCholesky(t *testing.T) {
	// For the serialized-accumulation tiled Cholesky, the critical path is
	// POTRF(0) TRSM(1,0) SYRK(1,0) POTRF(1) ... = 3(T-1)+1 tasks.
	for T := 1; T <= 8; T++ {
		g := NewCholesky(T)
		want := 3*(T-1) + 1
		if got := g.CriticalPathLength(); got != want {
			t.Fatalf("T=%d critical path = %d, want %d", T, got, want)
		}
	}
}

func TestDescendants(t *testing.T) {
	g := NewCholesky(3) // 10 tasks, root POTRF(0)
	all := g.Descendants(0)
	if len(all) != g.NumTasks()-1 {
		t.Fatalf("root should reach all others, got %d of %d", len(all), g.NumTasks()-1)
	}
	sink := g.Sinks()[0]
	if len(g.Descendants(sink)) != 0 {
		t.Fatal("sink has no descendants")
	}
}

func TestKernelCounts(t *testing.T) {
	g := NewCholesky(6)
	c := g.KernelCounts()
	if c[KPOTRF] != 6 || c[KTRSM] != 15 || c[KSYRK] != 15 || c[KGEMM] != 20 {
		t.Fatalf("Cholesky T=6 kernel counts = %v", c)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range []Kind{Cholesky, LU, QR, Random} {
		got, err := KindFromString(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip failed for %v: %v %v", k, got, err)
		}
	}
	if _, err := KindFromString("nope"); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestValidateAllFamilies(t *testing.T) {
	for T := 1; T <= 10; T++ {
		for _, g := range []*Graph{NewCholesky(T), NewLU(T), NewQR(T)} {
			if err := g.Validate(); err != nil {
				t.Fatalf("%v T=%d invalid: %v", g.Kind, T, err)
			}
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := NewCholesky(2)
	var sb strings.Builder
	if err := WriteDOT(&sb, g); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph cholesky", "POTRF(0)", "TRSM(1,0)", "->"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func taskNames(g *Graph, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Tasks[id].Name
	}
	return out
}

func TestRandomLayeredValidProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := RandomConfig{
			Layers:       2 + r.Intn(8),
			WidthMin:     1 + r.Intn(3),
			WidthMax:     4 + r.Intn(5),
			EdgeProb:     rng.Float64() * 0.6,
			LongEdgeProb: rng.Float64() * 0.2,
		}
		g := NewLayeredRandom(r, cfg)
		return g.Validate() == nil && g.NumTasks() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomLayeredNonRootsHavePreds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewLayeredRandom(rng, DefaultRandomConfig())
	// All roots must be in layer 0: every later-layer task has >= 1 pred.
	roots := g.Roots()
	for _, r := range roots {
		if !strings.Contains(g.Tasks[r].Name, "_L0_") {
			t.Fatalf("root %s not in layer 0", g.Tasks[r].Name)
		}
	}
}

// TestFrozenGraphIsImmutable: Freeze validates first, and after it every way of
// changing the graph panics — also on a union that a frozen graph was appended
// to, for the tasks the append brought in.
func TestFrozenGraphIsImmutable(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	g := NewFrozenByKind(LU, 3)
	if !g.Frozen() || g.Freeze() != nil {
		t.Fatal("a frozen graph must report it and freeze again as a no-op")
	}
	mustPanic("AddTask on a frozen graph", func() { g.AddTask(0, "X") })
	mustPanic("AddEdge on a frozen graph", func() { g.AddEdge(0, g.NumTasks()-1) })
	mustPanic("Append on a frozen graph", func() { g.Append(NewLU(2), "x:") })
	if err := g.Validate(); err != nil {
		t.Fatalf("frozen graph no longer validates: %v", err)
	}

	cyclic := newGraph(Random, 0, [NumKernels]string{"a", "b", "c", "d"})
	a, b := cyclic.AddTask(0, "A"), cyclic.AddTask(0, "B")
	cyclic.AddEdge(a, b)
	cyclic.AddEdge(b, a)
	if cyclic.Freeze() == nil || cyclic.Frozen() {
		t.Fatal("Freeze accepted a cyclic graph")
	}

	union := newUnion()
	union.Append(g, "j0:")
	x := union.AddTask(0, "X")
	y := union.AddTask(0, "Y")
	union.AddEdge(x, y) // tasks added after the append stay open
	mustPanic("AddEdge at an appended task", func() { union.AddEdge(0, x) })
}

// TestAppendMatchesAddTaskAddEdge holds the bulk append to the task-by-task
// union it replaced in sim.Cluster.AddJob: same Tasks (IDs shifted, names
// prefixed), same Succ and Pred, row for row — whether the job graph is frozen
// or not, and with relabelled jobs whose edges run against ID order.
func TestAppendMatchesAddTaskAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bulk, slow := newUnion(), newUnion()
	for j := 0; j < 30; j++ {
		job := randomJob(rng)
		prefix := fmt.Sprintf("j%d:", j)
		named := newGraph(job.Kind, job.Tiles, job.KernelNames)
		for _, task := range job.Tasks {
			named.AddTask(task.Kernel, prefix+task.Name)
		}
		for from, succ := range job.Succ {
			for _, to := range succ {
				named.AddEdge(from, to)
			}
		}
		appendJob(slow, named)
		if j%2 == 0 {
			if err := job.Freeze(); err != nil {
				t.Fatal(err)
			}
		}
		if base := bulk.Append(job, prefix); base != slow.NumTasks()-job.NumTasks() {
			t.Fatalf("job %d appended at %d, want %d", j, base, slow.NumTasks()-job.NumTasks())
		}
		if !reflect.DeepEqual(bulk.Tasks, slow.Tasks) || !reflect.DeepEqual(bulk.Succ, slow.Succ) || !reflect.DeepEqual(bulk.Pred, slow.Pred) {
			t.Fatalf("after job %d the appended union differs from the AddTask/AddEdge one", j)
		}
	}
	if err := bulk.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNewFrozenMatchesAddTaskAddEdge holds the one-pass constructor to the
// task-by-task build it replaced for explicit DAGs: on random edge lists with
// duplicates, edges against ID order and cycles, either both builds are
// acyclic with the same Tasks, Succ and Pred row for row (nil rows included)
// and NewFrozen's graph is frozen, or both fail with the same error.
func TestNewFrozenMatchesAddTaskAddEdge(t *testing.T) {
	names4 := [NumKernels]string{"a", "b", "c", "d"}
	cycles := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		kernels, names := make([]Kernel, n), make([]string, n)
		slow := NewCustom(QR, names4)
		for i := range kernels {
			kernels[i], names[i] = Kernel(rng.Intn(NumKernels)), fmt.Sprintf("t%d", rng.Intn(5))
			slow.AddTask(kernels[i], names[i])
		}
		var edges [][2]int
		for m := rng.Intn(3 * n); len(edges) < m && n > 1; {
			e := [2]int{rng.Intn(n), rng.Intn(n)}
			if e[0] == e[1] {
				continue
			}
			if rng.Intn(3) > 0 { // mostly forward, so that most graphs are acyclic
				e[0], e[1] = min(e[0], e[1]), max(e[0], e[1])
			}
			edges = append(edges, e)
			if len(edges) > 1 && rng.Intn(4) == 0 {
				edges = append(edges, edges[rng.Intn(len(edges))])
			}
		}
		for _, e := range edges {
			slow.AddEdge(e[0], e[1])
		}
		wantErr := slow.Validate()
		g, err := NewFrozen(QR, names4, kernels, names, edges)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Logf("seed %d: error %v, task-by-task %v", seed, err, wantErr)
			return false
		}
		if err != nil {
			cycles++
			return true
		}
		if !g.Frozen() || g.Kind != QR || g.KernelNames != names4 || g.Validate() != nil {
			t.Logf("seed %d: frozen %v, kind %v, kernel names %v, Validate %v", seed, g.Frozen(), g.Kind, g.KernelNames, g.Validate())
			return false
		}
		if !reflect.DeepEqual(g.Tasks, slow.Tasks) || !reflect.DeepEqual(g.Succ, slow.Succ) || !reflect.DeepEqual(g.Pred, slow.Pred) {
			t.Logf("seed %d, edges %v:\n succ %v\n want %v\n pred %v\n want %v", seed, edges, g.Succ, slow.Succ, g.Pred, slow.Pred)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("no edge list had a cycle: the error path went untested")
	}
}

// TestNumTasksForMatchesGenerators pins the closed forms to the generators, and
// the kernel names to what a generated graph carries.
func TestNumTasksForMatchesGenerators(t *testing.T) {
	for _, kind := range []Kind{Cholesky, LU, QR, Gemm, Stencil, ForkJoin} {
		for T := 1; T <= 12; T++ {
			g := NewByKind(kind, T)
			if got := NumTasksFor(kind, T); got != g.NumTasks() {
				t.Errorf("NumTasksFor(%v, %d) = %d, the generator builds %d", kind, T, got, g.NumTasks())
			}
			if KernelNamesFor(kind) != g.KernelNames {
				t.Errorf("KernelNamesFor(%v) = %v, the generator names them %v", kind, KernelNamesFor(kind), g.KernelNames)
			}
		}
	}
}
