package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// initialState builds a State at t=0 for a problem, before any decision.
func initialState(p Problem) *sim.State {
	g := p.Graph
	n := g.NumTasks()
	s := &sim.State{
		Graph:       g,
		Platform:    p.Platform,
		Timing:      p.Timing,
		Sigma:       p.Sigma,
		Done:        make([]bool, n),
		Started:     make([]bool, n),
		StartTime:   make([]float64, n),
		EndTime:     make([]float64, n),
		AssignedTo:  make([]int, n),
		BusyUntil:   make([]float64, p.Platform.Size()),
		RunningTask: make([]int, p.Platform.Size()),
		PredLeft:    make([]int, n),
	}
	for i := range s.AssignedTo {
		s.AssignedTo[i] = -1
	}
	for r := range s.RunningTask {
		s.RunningTask[r] = sim.NoTask
	}
	for i := 0; i < n; i++ {
		s.PredLeft[i] = len(g.Pred[i])
		if s.PredLeft[i] == 0 {
			s.Ready = append(s.Ready, i)
		}
	}
	return s
}

func TestEncodeInitialState(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	s := initialState(p)
	F := taskgraph.DescendantFeatures(p.Graph)
	es := EncodeFault(s, 0, F, 2, false, false)

	// Window holds the root and its descendants up to depth 2.
	want := taskgraph.Window(p.Graph, nil, []int{0}, 2)
	if len(es.Nodes) != len(want) {
		t.Fatalf("window size %d, want %d", len(es.Nodes), len(want))
	}
	if es.X.Rows != len(es.Nodes) || es.X.Cols != NumNodeFeatures {
		t.Fatalf("X shape %dx%d", es.X.Rows, es.X.Cols)
	}
	if es.Norm.Rows != len(es.Nodes) || es.Norm.Cols != len(es.Nodes) {
		t.Fatalf("Norm shape %dx%d", es.Norm.Rows, es.Norm.Cols)
	}
	// Only the root is ready.
	if len(es.ReadyRows) != 1 || es.ReadyTasks[0] != 0 {
		t.Fatalf("ready = %v/%v", es.ReadyRows, es.ReadyTasks)
	}
	// Root row features.
	row := es.X.Row(es.ReadyRows[0])
	if row[featReady] != 1 || row[featRunning] != 0 {
		t.Fatal("root should be ready, not running")
	}
	if row[featType0] != 1 { // POTRF one-hot
		t.Fatal("root kernel one-hot wrong")
	}
	// Idle is allowed at t=0 (the engine would force-re-ask if everyone
	// declines).
	if !es.AllowIdle {
		t.Fatal("∅ must be allowed outside forced rounds")
	}
	if es.NumActions() != 2 {
		t.Fatalf("NumActions = %d, want 2", es.NumActions())
	}
	// Resource context: asked CPU 0; all resources free.
	if es.Proc.Data[procIsCPU] != 1 || es.Proc.Data[procIsGPU] != 0 {
		t.Fatal("proc type one-hot wrong")
	}
	if es.Proc.Data[procFreeCPU] != 1 || es.Proc.Data[procFreeGPU] != 1 {
		t.Fatal("free fractions should be 1")
	}
	if es.Proc.Data[procWaitCPU] != 0 || es.Proc.Data[procWaitGPU] != 0 {
		t.Fatal("waits should be 0")
	}
}

func TestEncodeMustActMasksIdle(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	s := initialState(p)
	s.MustAct = true
	es := EncodeFault(s, 0, taskgraph.DescendantFeatures(p.Graph), 2, false, false)
	if es.AllowIdle {
		t.Fatal("idle must be masked in forced rounds")
	}
	if es.NumActions() != 1 {
		t.Fatalf("NumActions = %d, want 1", es.NumActions())
	}
}

func TestEncodeRunningTask(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 1, 1, 0)
	s := initialState(p)
	// Start the root on the GPU (resource 1) manually.
	s.Started[0] = true
	s.StartTime[0] = 0
	s.EndTime[0] = 8
	s.AssignedTo[0] = 1
	s.RunningTask[1] = 0
	s.BusyUntil[1] = 8
	s.Ready = nil
	s.Running = []int{0}
	s.Now = 2

	F := taskgraph.DescendantFeatures(p.Graph)
	// Make TRSM(1,0)=task 1 ready for the encoder to have a candidate.
	s.PredLeft[1] = 0
	s.Ready = []int{1}
	es := EncodeFault(s, 0, F, 1, false, false)

	var rootRow []float64
	for i, task := range es.Nodes {
		if task == 0 {
			rootRow = es.X.Row(i)
		}
	}
	if rootRow == nil {
		t.Fatal("running root not in window")
	}
	if rootRow[featRunning] != 1 || rootRow[featReady] != 0 {
		t.Fatal("running flags wrong")
	}
	// Remaining expected: started at 0 on GPU, E=8, now=2 → 6; maxE = 88.
	want := 6.0 / 88.0
	if math.Abs(rootRow[featRemaining]-want) > 1e-12 {
		t.Fatalf("remaining = %v, want %v", rootRow[featRemaining], want)
	}
	// Proc context: CPU free, GPU busy with estimated wait 6.
	if es.Proc.Data[procFreeGPU] != 0 || math.Abs(es.Proc.Data[procWaitGPU]-want) > 1e-12 {
		t.Fatalf("GPU context wrong: %v", es.Proc.Data)
	}
	if !es.AllowIdle {
		t.Fatal("idle allowed when a task is running")
	}
}

func TestEncodeFeatureBoundsProperty(t *testing.T) {
	// All features stay in [0, 1] throughout real episodes.
	p := NewProblem(taskgraph.LU, 4, 2, 2, 0.4)
	F := taskgraph.DescendantFeatures(p.Graph)
	violated := false
	probe := probePolicy{check: func(s *sim.State, r int) {
		es := EncodeFault(s, r, F, 2, false, false)
		for _, v := range es.X.Data {
			if v < -1e-12 || v > 1+1e-9 || math.IsNaN(v) {
				violated = true
			}
		}
		for _, v := range es.Proc.Data {
			// Wait features can exceed 1 when a task runs much longer than
			// maxE; they must still be finite and non-negative.
			if v < -1e-12 || math.IsNaN(v) || math.IsInf(v, 0) {
				violated = true
			}
		}
	}}
	if _, err := p.Simulate(&probe, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if violated {
		t.Fatal("feature out of bounds during episode")
	}
}

// probePolicy runs FIFO while letting a test inspect every decision state.
type probePolicy struct {
	check func(s *sim.State, r int)
}

func (p *probePolicy) Reset(*sim.State) {}
func (p *probePolicy) Decide(s *sim.State, r int) int {
	if p.check != nil {
		p.check(s, r)
	}
	return s.Ready[0]
}

func TestEncodeWindowZero(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	s := initialState(p)
	es := EncodeFault(s, 0, taskgraph.DescendantFeatures(p.Graph), 0, false, false)
	if len(es.Nodes) != 1 {
		t.Fatalf("w=0 window should hold only the ready root, got %v", es.Nodes)
	}
}

func TestEncodeDeterministicProperty(t *testing.T) {
	p := NewProblem(taskgraph.QR, 3, 1, 2, 0)
	F := taskgraph.DescendantFeatures(p.Graph)
	f := func(r8 uint8, w8 uint8) bool {
		s := initialState(p)
		r := int(r8) % p.Platform.Size()
		w := int(w8 % 4)
		a := EncodeFault(s, r, F, w, false, false)
		b := EncodeFault(s, r, F, w, false, false)
		return a.X.Equal(b.X) && a.Norm.Equal(b.Norm) && len(a.ReadyRows) == len(b.ReadyRows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRewardSign(t *testing.T) {
	if Reward(100, 90) <= 0 {
		t.Fatal("beating HEFT must give positive reward")
	}
	if Reward(100, 110) >= 0 {
		t.Fatal("losing to HEFT must give negative reward")
	}
	if Reward(100, 100) != 0 {
		t.Fatal("matching HEFT must give zero reward")
	}
}

func TestProblemHEFTBaselinePositive(t *testing.T) {
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		p := NewProblem(kind, 4, 2, 2, 0)
		if p.HEFTBaseline() <= 0 {
			t.Fatalf("%v baseline %v", kind, p.HEFTBaseline())
		}
	}
}

func TestProcFeatureHomogeneousPlatforms(t *testing.T) {
	// CPU-only platform: GPU context features stay zero.
	p := NewProblem(taskgraph.Cholesky, 4, 4, 0, 0)
	s := initialState(p)
	es := EncodeFault(s, 0, taskgraph.DescendantFeatures(p.Graph), 1, false, false)
	if es.Proc.Data[procFreeGPU] != 0 || es.Proc.Data[procWaitGPU] != 0 {
		t.Fatal("GPU features must be zero on CPU-only platform")
	}
	if es.Proc.Data[procIsCPU] != 1 {
		t.Fatal("current processor must be CPU")
	}
}
