package taskgraph

import (
	"testing"
	"testing/quick"
)

func TestGemmStructure(t *testing.T) {
	T := 3
	g := NewGemm(T)
	if g.NumTasks() != GemmTaskCount(T) {
		t.Fatalf("task count %d, want %d", g.NumTasks(), GemmTaskCount(T))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := kernelCounts(g)
	if c[KLoadA] != T*T || c[KLoadB] != T*T || c[KStoreC] != T*T || c[KMulAcc] != T*T*T {
		t.Fatalf("kernel counts %v", c)
	}
	// Each multiply chain is serialised: critical path ≥ T (chain) + load + store.
	if cp := criticalPathLength(g); cp != T+2 {
		t.Fatalf("critical path %d, want %d", cp, T+2)
	}
	// GEMM(i,j,k) depends on LOAD_A(i,k), LOAD_B(k,j) and the previous chain link.
	m := findTaskByName(t, g, "GEMM(1,2,1)")
	la := findTaskByName(t, g, "LOAD_A(1,1)")
	lb := findTaskByName(t, g, "LOAD_B(1,2)")
	prev := findTaskByName(t, g, "GEMM(1,2,0)")
	for _, dep := range []int{la, lb, prev} {
		if !contains(g.Pred[m], dep) {
			t.Fatalf("GEMM(1,2,1) missing dependency on task %d", dep)
		}
	}
}

func TestStencilStructure(t *testing.T) {
	T := 5
	g := NewStencil(T)
	if g.NumTasks() != StencilTaskCount(T) {
		t.Fatalf("task count %d", g.NumTasks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Wavefront critical path: (0,0) → ... → (T-1,T-1) = 2T-1 tasks.
	if cp := criticalPathLength(g); cp != 2*T-1 {
		t.Fatalf("critical path %d, want %d", cp, 2*T-1)
	}
	// Single root (corner) and single sink (opposite corner).
	if len(g.Roots()) != 1 || len(sinksOf(g)) != 1 {
		t.Fatalf("roots %v sinks %v", g.Roots(), sinksOf(g))
	}
	c := kernelCounts(g)
	if c[KCorner] != 1 || c[KEdgeRow] != T-1 || c[KEdgeCol] != T-1 || c[KInterior] != (T-1)*(T-1) {
		t.Fatalf("kernel counts %v", c)
	}
}

func TestForkJoinStructure(t *testing.T) {
	stages, width := 3, 4
	g := NewForkJoin(stages, width)
	if g.NumTasks() != ForkJoinTaskCount(stages, width) {
		t.Fatalf("task count %d, want %d", g.NumTasks(), ForkJoinTaskCount(stages, width))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Critical path: per stage fork→work→join (3 each) plus the reduce.
	if cp := criticalPathLength(g); cp != 3*stages+1 {
		t.Fatalf("critical path %d, want %d", cp, 3*stages+1)
	}
	c := kernelCounts(g)
	if c[KFork] != stages || c[KJoin] != stages || c[KWork] != stages*width || c[KReduce] != 1 {
		t.Fatalf("kernel counts %v", c)
	}
}

func TestExtraFamiliesValidProperty(t *testing.T) {
	f := func(t8 uint8) bool {
		T := int(t8%6) + 1
		return NewGemm(T).Validate() == nil &&
			NewStencil(T).Validate() == nil &&
			NewForkJoin(T, T).Validate() == nil &&
			NewGemm(T).NumTasks() == GemmTaskCount(T) &&
			NewStencil(T).NumTasks() == StencilTaskCount(T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewByKindExtraFamilies(t *testing.T) {
	if NewByKind(Gemm, 2).NumTasks() != GemmTaskCount(2) {
		t.Fatal("NewByKind gemm")
	}
	if NewByKind(Stencil, 4).NumTasks() != 16 {
		t.Fatal("NewByKind stencil")
	}
	if NewByKind(ForkJoin, 3).NumTasks() != ForkJoinTaskCount(3, 3) {
		t.Fatal("NewByKind forkjoin")
	}
}

func TestKindStringsExtra(t *testing.T) {
	for _, k := range []Kind{Gemm, Stencil, ForkJoin} {
		got, err := KindFromString(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v", k)
		}
	}
}

func findTaskByName(t *testing.T, g *Graph, name string) int {
	t.Helper()
	for _, task := range g.Tasks {
		if task.Name == name {
			return task.ID
		}
	}
	t.Fatalf("task %q not found", name)
	return -1
}
