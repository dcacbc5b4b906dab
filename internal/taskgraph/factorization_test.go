package taskgraph

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestCholeskyTaskCounts(t *testing.T) {
	// The paper (§V-F) quotes 20, 56, 120, 220 and 364 tasks for
	// T = 4, 6, 8, 10, 12.
	want := map[int]int{4: 20, 6: 56, 8: 120, 10: 220, 12: 364}
	for T, n := range want {
		g := NewCholesky(T)
		if g.NumTasks() != n {
			t.Fatalf("Cholesky T=%d has %d tasks, paper says %d", T, g.NumTasks(), n)
		}
		if CholeskyTaskCount(T) != n {
			t.Fatalf("CholeskyTaskCount(%d) = %d, want %d", T, CholeskyTaskCount(T), n)
		}
	}
}

func TestTaskCountFormulasProperty(t *testing.T) {
	f := func(t8 uint8) bool {
		T := int(t8%12) + 1
		return NewCholesky(T).NumTasks() == CholeskyTaskCount(T) &&
			NewLU(T).NumTasks() == LUTaskCount(T) &&
			NewQR(T).NumTasks() == QRTaskCount(T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLUKernelCounts(t *testing.T) {
	T := 5
	g := NewLU(T)
	c := kernelCounts(g)
	if c[KGETRF] != T {
		t.Fatalf("#GETRF = %d", c[KGETRF])
	}
	if c[KTRSML] != T*(T-1)/2 || c[KTRSMU] != T*(T-1)/2 {
		t.Fatalf("#TRSM = %d/%d", c[KTRSML], c[KTRSMU])
	}
	if c[KGEMMLU] != (T-1)*T*(2*T-1)/6 {
		t.Fatalf("#GEMM = %d", c[KGEMMLU])
	}
}

func TestQRKernelCounts(t *testing.T) {
	T := 5
	g := NewQR(T)
	c := kernelCounts(g)
	if c[KGEQRT] != T || c[KORMQR] != T*(T-1)/2 || c[KTSQRT] != T*(T-1)/2 {
		t.Fatalf("QR counts = %v", c)
	}
	if c[KTSMQR] != (T-1)*T*(2*T-1)/6 {
		t.Fatalf("#TSMQR = %d", c[KTSMQR])
	}
}

// findTask locates a task by name; the generators use deterministic names.
func findTask(t *testing.T, g *Graph, name string) int {
	t.Helper()
	for _, task := range g.Tasks {
		if task.Name == name {
			return task.ID
		}
	}
	t.Fatalf("task %q not found", name)
	return -1
}

func hasEdge(g *Graph, from, to int) bool {
	return contains(g.Succ[from], to)
}

func TestCholeskyDependencySemantics(t *testing.T) {
	g := NewCholesky(4)
	potrf0 := findTask(t, g, "POTRF(0)")
	trsm10 := findTask(t, g, "TRSM(1,0)")
	syrk10 := findTask(t, g, "SYRK(1,0)")
	potrf1 := findTask(t, g, "POTRF(1)")
	gemm210 := findTask(t, g, "GEMM(2,1,0)")
	trsm21 := findTask(t, g, "TRSM(2,1)")
	syrk31 := findTask(t, g, "SYRK(3,1)")
	syrk30 := findTask(t, g, "SYRK(3,0)")
	trsm30 := findTask(t, g, "TRSM(3,0)")

	checks := []struct {
		from, to int
		desc     string
	}{
		{potrf0, trsm10, "TRSM(1,0) needs POTRF(0)"},
		{trsm10, syrk10, "SYRK(1,0) needs TRSM(1,0)"},
		{syrk10, potrf1, "POTRF(1) needs SYRK(1,0)"},
		{gemm210, trsm21, "TRSM(2,1) needs GEMM(2,1,0)"},
		{syrk30, syrk31, "SYRK accumulation chain"},
		{trsm30, gemm210, "GEMM(2,1,0) needs TRSM(2,0)... checked below"},
	}
	// Fix the last expectation properly: GEMM(2,1,0) needs TRSM(2,0) and TRSM(1,0).
	trsm20 := findTask(t, g, "TRSM(2,0)")
	checks[5] = struct {
		from, to int
		desc     string
	}{trsm20, gemm210, "GEMM(2,1,0) needs TRSM(2,0)"}

	for _, c := range checks {
		if !hasEdge(g, c.from, c.to) {
			t.Errorf("missing dependency: %s", c.desc)
		}
	}
	if !hasEdge(g, trsm10, gemm210) {
		t.Error("GEMM(2,1,0) needs TRSM(1,0)")
	}
}

func TestLUDependencySemantics(t *testing.T) {
	g := NewLU(3)
	getrf0 := findTask(t, g, "GETRF(0)")
	trsmL10 := findTask(t, g, "TRSM_L(1,0)")
	trsmU01 := findTask(t, g, "TRSM_U(0,1)")
	gemm110 := findTask(t, g, "GEMM(1,1,0)")
	getrf1 := findTask(t, g, "GETRF(1)")

	if !hasEdge(g, getrf0, trsmL10) || !hasEdge(g, getrf0, trsmU01) {
		t.Error("panel solves need GETRF(0)")
	}
	if !hasEdge(g, trsmL10, gemm110) || !hasEdge(g, trsmU01, gemm110) {
		t.Error("GEMM(1,1,0) needs both panel solves")
	}
	if !hasEdge(g, gemm110, getrf1) {
		t.Error("GETRF(1) needs GEMM(1,1,0)")
	}
}

func TestQRDependencySemantics(t *testing.T) {
	g := NewQR(3)
	geqrt0 := findTask(t, g, "GEQRT(0)")
	ormqr01 := findTask(t, g, "ORMQR(0,1)")
	tsqrt10 := findTask(t, g, "TSQRT(1,0)")
	tsqrt20 := findTask(t, g, "TSQRT(2,0)")
	tsmqr110 := findTask(t, g, "TSMQR(1,1,0)")
	tsmqr210 := findTask(t, g, "TSMQR(2,1,0)")
	geqrt1 := findTask(t, g, "GEQRT(1)")

	if !hasEdge(g, geqrt0, ormqr01) || !hasEdge(g, geqrt0, tsqrt10) {
		t.Error("GEQRT(0) gates ORMQR and first TSQRT")
	}
	if !hasEdge(g, tsqrt10, tsqrt20) {
		t.Error("TSQRT chain must be serialised on the diagonal tile")
	}
	if !hasEdge(g, ormqr01, tsmqr110) {
		t.Error("TSMQR(1,1,0) needs ORMQR(0,1)")
	}
	if !hasEdge(g, tsmqr110, tsmqr210) {
		t.Error("TSMQR chain must be serialised on the top tile row")
	}
	if !hasEdge(g, tsmqr110, geqrt1) {
		t.Error("GEQRT(1) needs TSMQR(1,1,0)")
	}
}

func TestSingleRootSingleSinkFamilies(t *testing.T) {
	for T := 2; T <= 8; T++ {
		for _, g := range []*Graph{NewCholesky(T), NewLU(T), NewQR(T)} {
			if len(g.Roots()) != 1 {
				t.Fatalf("%v T=%d has %d roots", g.Kind, T, len(g.Roots()))
			}
		}
	}
}

func TestNewByKind(t *testing.T) {
	if NewByKind(Cholesky, 4).NumTasks() != 20 {
		t.Fatal("NewByKind cholesky wrong")
	}
	if NewByKind(LU, 4).NumTasks() != 30 {
		t.Fatal("NewByKind lu wrong")
	}
	if NewByKind(QR, 4).NumTasks() != 30 {
		t.Fatal("NewByKind qr wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewByKind(Random) should panic")
		}
	}()
	NewByKind(Random, 4)
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, kind := range []Kind{Cholesky, LU, QR} {
		a, b := NewByKind(kind, 6), NewByKind(kind, 6)
		if a.NumTasks() != b.NumTasks() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("%v generator nondeterministic", kind)
		}
		for i := range a.Tasks {
			if a.Tasks[i].Name != b.Tasks[i].Name {
				t.Fatalf("%v task %d name differs", kind, i)
			}
		}
	}
}

func ExampleNewCholesky() {
	g := NewCholesky(4)
	fmt.Println(g.NumTasks(), len(g.Roots()))
	// Output: 20 1
}
