package exp

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"readys/internal/core"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

func TestSummarise(t *testing.T) {
	s := Summarise([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.N != 4 {
		t.Fatalf("summary %+v", s)
	}
	// std = sqrt(5/3); CI = 1.96*std/2
	wantCI := 1.96 * math.Sqrt(5.0/3.0) / 2
	if math.Abs(s.CI-wantCI) > 1e-12 {
		t.Fatalf("CI = %v, want %v", s.CI, wantCI)
	}
	if Summarise(nil).N != 0 {
		t.Fatal("empty summary")
	}
	one := Summarise([]float64{7})
	if one.Mean != 7 || one.CI != 0 {
		t.Fatalf("single-sample summary %+v", one)
	}
}

func TestSummariseCI99(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	s95 := Summarise(xs)
	s99 := SummariseCI(xs, 2.58)
	if math.Abs(s99.CI-s95.CI/1.96*2.58) > 1e-12 {
		t.Fatalf("99%% CI scaling wrong: %v vs %v", s99.CI, s95.CI)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.AddRow("30", "40")
	csv := tab.CSV()
	if csv != "a,b\n1,2\n30,40\n" {
		t.Fatalf("CSV = %q", csv)
	}
	text := tab.Text()
	if !strings.Contains(text, "# demo") || !strings.Contains(text, "30") {
		t.Fatalf("Text = %q", text)
	}
}

func TestAgentSpecNaming(t *testing.T) {
	spec := DefaultAgentSpec(taskgraph.Cholesky, 8, 2, 2)
	if spec.Name() != "readys_cholesky_T8_2c2g_w2_l2_h32" {
		t.Fatalf("Name = %q", spec.Name())
	}
	if !strings.HasSuffix(spec.ModelPath("models"), "readys_cholesky_T8_2c2g_w2_l2_h32.json") {
		t.Fatalf("ModelPath = %q", spec.ModelPath("models"))
	}
	if spec.Problem().Graph.NumTasks() != 120 {
		t.Fatal("spec problem wrong")
	}
}

func TestEpisodesForScaling(t *testing.T) {
	small := EpisodesFor(taskgraph.Cholesky, 2)
	large := EpisodesFor(taskgraph.Cholesky, 12)
	if small != 8000 {
		t.Fatalf("tiny problem should cap at 8000, got %d", small)
	}
	if large >= small {
		t.Fatal("episodes must shrink with problem size")
	}
	if large < 1200 {
		t.Fatalf("floor violated: %d", large)
	}
}

func TestTrainSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := DefaultAgentSpec(taskgraph.Cholesky, 2, 1, 1)
	spec.Hidden, spec.Layers, spec.Window = 8, 1, 1
	agent, hist, err := TrainAgent(spec, dir, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Episodes) != 5 {
		t.Fatal("history wrong")
	}
	loaded, err := LoadAgent(spec, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded agent must equal the trained one parameter for parameter.
	for _, p := range agent.Params().All() {
		q := loaded.Params().Get(p.Name)
		if q == nil || !q.Value.Equal(p.Value) {
			t.Fatalf("parameter %s not restored", p.Name)
		}
	}
	// LoadOrTrain must hit the cache (episodes=0 would fail if it trained).
	if _, err := LoadOrTrain(spec, dir, 5); err != nil {
		t.Fatal(err)
	}
}

func TestCompareProducesSaneRatios(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 1})
	pts, err := Compare(agent, taskgraph.Cholesky, 3, 1, 1, []float64{0, 0.3}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, pt := range pts {
		if pt.READYS.Mean <= 0 || pt.HEFT.Mean <= 0 || pt.MCT.Mean <= 0 {
			t.Fatalf("non-positive means: %+v", pt)
		}
		if pt.ImproveHEFT <= 0 || pt.ImproveMCT <= 0 {
			t.Fatalf("non-positive ratios: %+v", pt)
		}
		// An untrained agent should not beat HEFT by much, and HEFT should
		// not be worse than 20x the agent (sanity bounds).
		if pt.ImproveHEFT > 20 || pt.ImproveHEFT < 0.01 {
			t.Fatalf("implausible ratio %v", pt.ImproveHEFT)
		}
	}
}

func TestCompareNoiseFreePointIsStable(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 2})
	a, err := Compare(agent, taskgraph.Cholesky, 3, 1, 1, []float64{0}, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compare(agent, taskgraph.Cholesky, 3, 1, 1, []float64{0}, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].READYS.Mean != b[0].READYS.Mean || a[0].HEFT.Mean != b[0].HEFT.Mean {
		t.Fatal("same seed must reproduce")
	}
}

// sinkFirst asks to start the graph's sink, which is never ready while other
// tasks remain.
type sinkFirst struct{}

func (sinkFirst) Reset(*sim.State)               {}
func (sinkFirst) Decide(s *sim.State, _ int) int { return s.Graph.NumTasks() - 1 }

// TestAppendMakespanReturnsFailedRun: a run whose simulation fails reaches the
// caller as its error, and the sample it was to join keeps what it had, so no
// figure averages fewer seeds than it asked for.
func TestAppendMakespanReturnsFailedRun(t *testing.T) {
	prob := core.NewProblem(taskgraph.Cholesky, 3, 1, 1, 0.1)
	var runner sim.Runner
	rng := rand.New(rand.NewSource(1))
	ms, err := appendMakespan(nil, prob, &runner, sched.MCTPolicy{}, rng, 1)
	if err != nil || len(ms) != 1 {
		t.Fatalf("valid run: %d makespans, error %v", len(ms), err)
	}
	ms, err = appendMakespan(ms, prob, &runner, sinkFirst{}, rng, 2)
	if err == nil || !strings.Contains(err.Error(), "non-ready") {
		t.Fatalf("a policy starting a non-ready task gave error %v", err)
	}
	if len(ms) != 1 {
		t.Fatalf("the failed run left %d makespans, want the 1 from before", len(ms))
	}
}

func TestFigure7SmallSizes(t *testing.T) {
	tab, pts, err := Figure7([]int{2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(tab.Rows) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Tasks != 4 || pts[1].Tasks != 10 {
		t.Fatalf("task counts %v %v", pts[0].Tasks, pts[1].Tasks)
	}
	for _, pt := range pts {
		if pt.MeanInferenceMs.Mean <= 0 {
			t.Fatalf("inference time %v", pt.MeanInferenceMs.Mean)
		}
		if pt.MeanWindow <= 0 {
			t.Fatalf("window %v", pt.MeanWindow)
		}
	}
	// Larger DAGs have at least as large average windows.
	if pts[1].MeanWindow < pts[0].MeanWindow {
		t.Fatal("window should grow with T")
	}
}

// rebuildWindowPolicy counts the window rows of every decision with a full
// EncodeFault rebuild before handing the decision to the policy it wraps.
type rebuildWindowPolicy struct {
	*core.Policy
	rows, decisions int
	feats           [][taskgraph.NumKernels]float64
}

func (p *rebuildWindowPolicy) Reset(s *sim.State) {
	p.Policy.Reset(s)
	p.feats = taskgraph.DescendantFeatures(s.Graph)
}

func (p *rebuildWindowPolicy) Decide(s *sim.State, r int) int {
	cfg := p.Agent.Cfg
	p.rows += len(core.EncodeFault(s, r, p.feats, cfg.Window, cfg.Directed, cfg.FaultFeatures).Nodes)
	p.decisions++
	return p.Policy.Decide(s, r)
}

// TestFigure7WindowMatchesRebuild: Figure 7's mean_window_tasks, read from
// the policy's DecideStats (memo hits and carried-over windows included), is
// bit for bit the mean window an EncodeFault rebuild at every decision counts.
func TestFigure7WindowMatchesRebuild(t *testing.T) {
	sizes, runs := []int{4, 6}, 2
	_, pts, err := Figure7(sizes, runs)
	if err != nil {
		t.Fatal(err)
	}
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	for i, T := range sizes {
		prob := core.NewProblem(taskgraph.Cholesky, T, 2, 2, 0.1)
		var rows, decisions float64
		for run := 0; run < runs; run++ {
			pol := &rebuildWindowPolicy{Policy: core.NewPolicy(agent)}
			if _, err := prob.Simulate(pol, rand.New(rand.NewSource(int64(run)))); err != nil {
				t.Fatal(err)
			}
			rows += float64(pol.rows)
			decisions += float64(pol.decisions)
		}
		if want := rows / decisions; math.Float64bits(pts[i].MeanWindow) != math.Float64bits(want) {
			t.Fatalf("T=%d: mean window %v from DecideStats, %v from EncodeFault", T, pts[i].MeanWindow, want)
		}
	}
}

func TestDefaultModelsDir(t *testing.T) {
	t.Setenv("READYS_MODELS_DIR", "")
	if DefaultModelsDir() != "models" {
		t.Fatal("default dir wrong")
	}
	t.Setenv("READYS_MODELS_DIR", "/tmp/m")
	if DefaultModelsDir() != "/tmp/m" {
		t.Fatal("env override ignored")
	}
}
