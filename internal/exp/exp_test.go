package exp

import (
	"fmt"
	"math"
	"math/rand"
	"os"
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

func TestTrainSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := DefaultAgentSpec(taskgraph.Cholesky, 2, 1, 1)
	spec.Hidden, spec.Layers, spec.Window = 8, 1, 1
	agent, hist, err := Train(Recipe{Spec: spec, Episodes: 5}, dir, TrainOptions{})
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
	got := loaded.Params().All()
	for i, p := range agent.Params().All() {
		if q := got[i]; q.Name != p.Name || !q.Value.Equal(p.Value) {
			t.Fatalf("parameter %s not restored", p.Name)
		}
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

// TestEvaluatorReturnsFailedRun: a run whose simulation fails reaches the
// caller as its error, naming the scheduler and the seed, and no makespans
// come back, so no figure averages fewer seeds than it asked for.
func TestEvaluatorReturnsFailedRun(t *testing.T) {
	prob := core.NewProblem(taskgraph.Cholesky, 3, 1, 1, 0.1)
	e := newEvaluator()
	ms, err := e.makespans(prob, []scheduler{{"MCT", sched.MCTPolicy{}}}, 2, 1)
	if err != nil || len(ms) != 1 || len(ms[0]) != 2 {
		t.Fatalf("valid runs: makespans %v, error %v", ms, err)
	}
	ms, err = e.makespans(prob, []scheduler{{"MCT", sched.MCTPolicy{}}, {"sink-first", sinkFirst{}}}, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "non-ready") || !strings.Contains(err.Error(), "sink-first, seed 1") {
		t.Fatalf("a policy starting a non-ready task gave error %v", err)
	}
	if ms != nil {
		t.Fatalf("the failed evaluation returned makespans %v", ms)
	}
}

// TestStreamSweepReturnsFailedRun: a stream run whose arrivals cannot be
// generated fails the sweep instead of leaving its row a seed short.
func TestStreamSweepReturnsFailedRun(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 1})
	cases := []StreamCase{{Load: 1}}
	pts, err := StreamSweep(agent, 1, 1, StreamKinds, StreamSizes, 0.1, cases, 3, 2, 7)
	if err != nil || len(pts) != 1 || pts[0].READYS.MeanResponse.N != 2 || pts[0].MCT.MeanResponse.N != 2 {
		t.Fatalf("valid sweep: points %+v, error %v", pts, err)
	}
	pts, err = StreamSweep(agent, 1, 1, StreamKinds, StreamSizes, 0.1, cases, 0, 2, 7)
	if err == nil || !strings.Contains(err.Error(), "seed 7") {
		t.Fatalf("a stream with no jobs gave points %+v, error %v", pts, err)
	}
}

// TestEmptySweepRefused: every entry point of the comparison tables refuses
// a run, trial or episode count below one, at 0 and at −1, instead of
// printing a table of zeros, NaN window sizes or no rows at all.
func TestEmptySweepRefused(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 1})
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		run  func(n int) error
	}{
		{"Compare", func(n int) error {
			_, err := Compare(agent, taskgraph.Cholesky, 2, 1, 1, Sigmas, n, 1)
			return err
		}},
		{"ResilienceSweep", func(n int) error {
			_, err := ResilienceSweep(agent, taskgraph.Cholesky, 2, 1, 1, 0.1, FaultRates, n, 1)
			return err
		}},
		{"StreamSweep", func(n int) error {
			_, err := StreamSweep(agent, 1, 1, StreamKinds, StreamSizes, 0.1, DefaultStreamCases(), 3, n, 1)
			return err
		}},
		{"ablation", func(n int) error {
			if _, err := Ablation(dir, n); err == nil || !strings.Contains(err.Error(), "episodes") {
				return fmt.Errorf("Ablation with %d episodes: %v", n, err)
			}
			_, err := compareWithPolicy(agent, taskgraph.Cholesky, 2, 1, 1, 0, n, 1, true)
			return err
		}},
		{"Figure7", func(n int) error {
			_, _, err := Figure7([]int{2}, n)
			return err
		}},
		{"RandomSearch", func(n int) error {
			if _, _, err := RandomSearch(rand.New(rand.NewSource(1)), 1, n); err == nil || !strings.Contains(err.Error(), "episodes") {
				return fmt.Errorf("RandomSearch with %d episodes: %v", n, err)
			}
			_, _, err := RandomSearch(rand.New(rand.NewSource(1)), n, 1)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{0, -1} {
				if err := tc.run(n); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("must be >= 1, got %d", n)) {
					t.Fatalf("a count of %d gave error %v", n, err)
				}
			}
		})
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("a refused ablation wrote %d files (%v)", len(entries), err)
	}
}

// TestEvaluatorReuseBitIdentical: one evaluator, reused across cells
// (factorisations, faults on and off, two noise levels) with its resident
// READYS policy, simulator and noise generator, gives the makespans of a
// fresh policy, simulator and generators per run, bit for bit.
func TestEvaluatorReuseBitIdentical(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 8, Seed: 3})
	e := newEvaluator()
	scheds := []scheduler{{"READYS", core.NewPolicy(agent)}, {"MCT", sched.MCTPolicy{}}}
	const runs, seed = 4, 13
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		for _, faults := range []bool{false, true} {
			for _, sigma := range []float64{0.1, 0.3} {
				prob := core.NewProblem(kind, 4, 2, 2, sigma)
				if faults {
					prob.Faults = sim.SpecForRate(1, core.FaultHorizonFactor*prob.HEFTBaseline())
				}
				got, err := e.makespans(prob, scheds, runs, seed)
				if err != nil {
					t.Fatal(err)
				}
				distinct := map[float64]bool{}
				for i := 0; i < runs; i++ {
					base := seed + int64(i)
					fresh := core.NewPolicy(agent)
					for s, pol := range []sim.Policy{fresh, sched.MCTPolicy{}} {
						res, err := new(sim.Runner).Simulate(prob.Graph, prob.Platform, prob.Timing, pol, sim.Options{
							Sigma: sigma, Rng: rand.New(rand.NewSource(base)), Faults: prob.FaultPlanFor(sim.PlanSeed(base)),
						})
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(got[s][i]) != math.Float64bits(res.Makespan) {
							t.Fatalf("%v faults=%v σ=%g %s run %d: makespan %v from the evaluator, %v fresh",
								kind, faults, sigma, scheds[s].name, i, got[s][i], res.Makespan)
						}
					}
					distinct[got[0][i]] = true
				}
				if len(distinct) < 2 {
					t.Fatalf("%v faults=%v σ=%g: every READYS run has the same makespan; the runs do not differ enough to tell policies apart", kind, faults, sigma)
				}
			}
		}
	}
}

// TestSweepPointIsItsOwnCell: a cell's value does not depend on where it sits
// in its sweep. A one-point call gives the full sweep's matching point bit for
// bit (%v prints each float's shortest round-trip form), because run i of
// every point draws from seed + i: the same keyed z at every σ, the same fault
// plan at every rate and the same arrivals at every load. A resilience point's
// degradations are left out: they are relative to the sweep's first point.
func TestSweepPointIsItsOwnCell(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 1})
	const runs, seed = 2, 5
	resilience := func(rates []float64) (string, error) {
		pts, err := ResilienceSweep(agent, taskgraph.Cholesky, 3, 1, 1, 0.1, rates, runs, seed)
		if err != nil {
			return "", err
		}
		pt := pts[len(pts)-1]
		pt.DegradeREADYS, pt.DegradeHEFT, pt.DegradeReplan, pt.DegradeMCT = 0, 0, 0, 0
		return fmt.Sprintf("%+v", pt), nil
	}
	stream := func(cases []StreamCase) (string, error) {
		pts, err := StreamSweep(agent, 1, 1, StreamKinds, StreamSizes, 0.1, cases, 4, runs, seed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", pts[len(pts)-1]), nil
	}
	compare := func(sigmas []float64) (string, error) {
		pts, err := Compare(agent, taskgraph.LU, 3, 1, 1, sigmas, runs, seed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", pts[len(pts)-1]), nil
	}
	if Sigmas[len(Sigmas)-1] != 0.5 || FaultRates[len(FaultRates)-1] != 2 {
		t.Fatalf("the pinned points are the last of Sigmas %v and FaultRates %v", Sigmas, FaultRates)
	}
	cases := DefaultStreamCases()
	for _, tc := range []struct {
		name      string
		one, full func() (string, error)
	}{
		{"Compare σ=0.5",
			func() (string, error) { return compare([]float64{0.5}) },
			func() (string, error) { return compare(Sigmas) }},
		{"ResilienceSweep rate 2",
			func() (string, error) { return resilience([]float64{2}) },
			func() (string, error) { return resilience(FaultRates) }},
		{"StreamSweep last case",
			func() (string, error) { return stream(cases[len(cases)-1:]) },
			func() (string, error) { return stream(cases) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one, err := tc.one()
			if err != nil {
				t.Fatal(err)
			}
			full, err := tc.full()
			if err != nil {
				t.Fatal(err)
			}
			if one != full {
				t.Fatalf("alone:\n  %s\nin the full sweep:\n  %s", one, full)
			}
		})
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
	p.rows += len(core.EncodeFault(s, r, p.feats, cfg.Window, false, cfg.FaultFeatures).Nodes)
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
