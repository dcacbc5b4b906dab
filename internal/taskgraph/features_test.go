package taskgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDescendantFeaturesChain(t *testing.T) {
	// Chain 0→1→2 with kernels 0,1,2: F̄(2)=e2, F̄(1)=e1+e2, F̄(0)=e0+e1+e2.
	g := newGraph(Random, 0, [NumKernels]string{"a", "b", "c", "d"})
	a := g.AddTask(0, "A")
	b := g.AddTask(1, "B")
	c := g.AddTask(2, "C")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	f := DescendantFeatures(g)
	want := [][NumKernels]float64{
		{1, 1, 1, 0},
		{0, 1, 1, 0},
		{0, 0, 1, 0},
	}
	for i := range want {
		for k := 0; k < NumKernels; k++ {
			if math.Abs(f[i][k]-want[i][k]) > 1e-12 {
				t.Fatalf("F[%d][%d] = %v, want %v", i, k, f[i][k], want[i][k])
			}
		}
	}
}

func TestDescendantFeaturesDiamondSplit(t *testing.T) {
	// Diamond: 0→{1,2}→3. Node 3 (kernel 3, two parents) contributes 1/2 to
	// each parent.
	g := newGraph(Random, 0, [NumKernels]string{"a", "b", "c", "d"})
	a := g.AddTask(0, "A")
	b := g.AddTask(1, "B")
	c := g.AddTask(1, "C")
	d := g.AddTask(3, "D")
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	f := DescendantFeatures(g)
	if math.Abs(f[b][3]-0.5) > 1e-12 || math.Abs(f[c][3]-0.5) > 1e-12 {
		t.Fatalf("split wrong: f[b][3]=%v f[c][3]=%v", f[b][3], f[c][3])
	}
	// Root's F is 1 for every kernel type present and 0 otherwise.
	if f[a][0] != 1 || f[a][1] != 1 || f[a][3] != 1 || f[a][2] != 0 {
		t.Fatalf("root F = %v", f[a])
	}
}

func TestDescendantFeaturesRootIsOne(t *testing.T) {
	for _, g := range []*Graph{NewCholesky(6), NewLU(5), NewQR(5)} {
		f := DescendantFeatures(g)
		root := g.Roots()[0]
		counts := kernelCounts(g)
		for k := 0; k < NumKernels; k++ {
			want := 0.0
			if counts[k] > 0 {
				want = 1.0
			}
			if math.Abs(f[root][k]-want) > 1e-9 {
				t.Fatalf("%v root F[%d] = %v, want %v", g.Kind, k, f[root][k], want)
			}
		}
	}
}

func TestDescendantFeaturesBoundedProperty(t *testing.T) {
	// Every F component lies in [0,1] for any DAG.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewLayeredRandom(rng, DefaultRandomConfig())
		feats := DescendantFeatures(g)
		for _, row := range feats {
			for _, v := range row {
				if v < -1e-12 || v > 1+1e-9 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDescendantFeaturesRootSumEqualsTaskCounts(t *testing.T) {
	// The unnormalised invariant: summing F̄ over the roots of the DAG gives
	// the kernel-type task counts. We verify it through the normalised output
	// by checking that F over roots sums to exactly 1 per present type.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := NewLayeredRandom(rng, DefaultRandomConfig())
		f := DescendantFeatures(g)
		counts := kernelCounts(g)
		var rootSum [NumKernels]float64
		for _, r := range g.Roots() {
			for k := 0; k < NumKernels; k++ {
				rootSum[k] += f[r][k]
			}
		}
		for k := 0; k < NumKernels; k++ {
			if counts[k] == 0 {
				if rootSum[k] != 0 {
					t.Fatalf("absent kernel %d has F mass %v", k, rootSum[k])
				}
				continue
			}
			if math.Abs(rootSum[k]-1) > 1e-9 {
				t.Fatalf("root F mass for kernel %d = %v, want 1", k, rootSum[k])
			}
		}
	}
}

func TestDescendantFeaturesMonotoneAlongChain(t *testing.T) {
	// Walking down any edge cannot increase a task's F component beyond its
	// parent's when the parent is the only predecessor... in general F is not
	// monotone, but on the Cholesky sink chain POTRF(T-1) the GEMM share must
	// shrink to zero.
	g := NewCholesky(6)
	f := DescendantFeatures(g)
	sink := sinksOf(g)[0]
	if f[sink][KGEMM] != 0 || f[sink][KPOTRF] == 0 {
		t.Fatalf("sink F = %v", f[sink])
	}
}

func TestWindowDepthZero(t *testing.T) {
	g := NewCholesky(4)
	running := []int{0}
	w := Window(g, running, nil, 0)
	if len(w) != 1 || w[0] != 0 {
		t.Fatalf("w=0 window = %v", w)
	}
}

func TestWindowGrowsWithDepth(t *testing.T) {
	g := NewCholesky(6)
	root := g.Roots()[0]
	prev := 0
	for w := 0; w <= 4; w++ {
		win := Window(g, nil, []int{root}, w)
		if len(win) < prev {
			t.Fatalf("window shrank at w=%d", w)
		}
		prev = len(win)
	}
	// With a large enough window everything reachable is included.
	all := Window(g, nil, []int{root}, g.NumTasks())
	if len(all) != g.NumTasks() {
		t.Fatalf("full window = %d tasks, want %d", len(all), g.NumTasks())
	}
}

func TestWindowMinDepthSemantics(t *testing.T) {
	// Diamond 0→{1,2}→3 plus long path 0→4→5→3: depth of 3 from {0} is 2 via
	// the diamond, so it must appear in a w=2 window even though another path
	// has length 3.
	g := newGraph(Random, 0, [NumKernels]string{"a", "b", "c", "d"})
	n0 := g.AddTask(0, "0")
	n1 := g.AddTask(0, "1")
	n2 := g.AddTask(0, "2")
	n3 := g.AddTask(0, "3")
	n4 := g.AddTask(0, "4")
	n5 := g.AddTask(0, "5")
	g.AddEdge(n0, n1)
	g.AddEdge(n0, n2)
	g.AddEdge(n1, n3)
	g.AddEdge(n2, n3)
	g.AddEdge(n0, n4)
	g.AddEdge(n4, n5)
	g.AddEdge(n5, n3)
	win := Window(g, nil, []int{n0}, 2)
	if !contains(win, n3) {
		t.Fatalf("n3 at min depth 2 missing from w=2 window: %v", win)
	}
	win1 := Window(g, nil, []int{n0}, 1)
	if contains(win1, n3) {
		t.Fatalf("n3 must not be in w=1 window: %v", win1)
	}
}

func TestWindowUnionOfSources(t *testing.T) {
	g := NewCholesky(4)
	running := []int{0}
	trsm := g.Succ[0][0]
	win := Window(g, running, []int{trsm}, 0)
	if len(win) != 2 {
		t.Fatalf("window should hold both sources, got %v", win)
	}
}

func TestWindowSortedProperty(t *testing.T) {
	f := func(seed int64, w8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewLayeredRandom(rng, DefaultRandomConfig())
		roots := g.Roots()
		win := Window(g, nil, roots, int(w8%4))
		for i := 1; i < len(win); i++ {
			if win[i-1] >= win[i] {
				return false
			}
		}
		return len(win) >= len(roots)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
