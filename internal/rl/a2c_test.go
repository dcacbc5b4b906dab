package rl

import (
	"fmt"
	"math"
	"testing"

	"readys/internal/core"
	"readys/internal/nn"
	"readys/internal/platform"
	"readys/internal/taskgraph"
)

func tinyAgent(seed int64) *core.Agent {
	return core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: seed})
}

func tinyProblem() core.Problem {
	return core.NewProblem(taskgraph.Cholesky, 3, 1, 1, 0)
}

func fastCfg(episodes int) Config {
	cfg := DefaultConfig()
	cfg.Episodes = episodes
	return cfg
}

func TestTrainerRunsAndRecordsHistory(t *testing.T) {
	tr := NewTrainer(tinyAgent(1), tinyProblem(), fastCfg(10))
	var progressed int
	h, err := tr.Run(func(EpisodeStats) { progressed++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Episodes) != 10 || progressed != 10 {
		t.Fatalf("history %d episodes, progress %d", len(h.Episodes), progressed)
	}
	if h.BaselineMakespan != tr.baseline || h.BaselineMakespan <= 0 {
		t.Fatalf("baseline %v", h.BaselineMakespan)
	}
	for _, e := range h.Episodes {
		if e.Makespan <= 0 || math.IsNaN(e.Reward) || math.IsNaN(e.Loss) || math.IsNaN(e.Entropy) {
			t.Fatalf("bad episode stats: %+v", e)
		}
		wantReward := (h.BaselineMakespan - e.Makespan) / h.BaselineMakespan
		if math.Abs(e.Reward-wantReward) > 1e-9 {
			t.Fatalf("reward %v inconsistent with makespan %v", e.Reward, e.Makespan)
		}
	}
}

func TestTrainerChangesParameters(t *testing.T) {
	agent := tinyAgent(1)
	before := snapshotParams(agent.Params())
	tr := NewTrainer(agent, tinyProblem(), fastCfg(4))
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
	after := snapshotParams(agent.Params())
	if before == after {
		t.Fatal("training did not update parameters")
	}
}

func snapshotParams(ps *nn.ParamSet) string {
	var sum float64
	for _, p := range ps.All() {
		for _, v := range p.Value.Data {
			sum += v * v
		}
	}
	return fmt.Sprintf("%.12f", sum)
}

func TestTrainerDeterministicWithSeed(t *testing.T) {
	run := func() []float64 {
		tr := NewTrainer(tinyAgent(3), tinyProblem(), fastCfg(6))
		h, err := tr.Run(nil)
		if err != nil {
			panic(err)
		}
		out := make([]float64, len(h.Episodes))
		for i, e := range h.Episodes {
			out[i] = e.Makespan
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("episode %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTrainerUnrollBootstrap(t *testing.T) {
	cfg := fastCfg(6)
	cfg.Unroll = 5
	tr := NewTrainer(tinyAgent(4), tinyProblem(), cfg)
	h, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Episodes) != 6 {
		t.Fatal("unroll run incomplete")
	}
}

func TestTrainerGradientsClippedFinite(t *testing.T) {
	agent := tinyAgent(5)
	cfg := fastCfg(8)
	cfg.ClipNorm = 0.001 // aggressive clip must still work
	tr := NewTrainer(agent, tinyProblem(), cfg)
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range agent.Params().All() {
		for _, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("parameter diverged")
			}
		}
	}
}

func TestEvaluateReturnsRuns(t *testing.T) {
	agent := tinyAgent(6)
	ms, err := Evaluate(agent, tinyProblem(), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("got %d makespans", len(ms))
	}
	for _, m := range ms {
		if m <= 0 {
			t.Fatalf("bad makespan %v", m)
		}
	}
	// σ=0 and greedy: all runs identical up to processor draw order; with a
	// fixed seed the first run must be reproducible.
	ms2, err := Evaluate(agent, tinyProblem(), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ms2[0] != ms[0] {
		t.Fatal("Evaluate not reproducible")
	}
}

func TestHistoryFinalMeanReward(t *testing.T) {
	h := History{Episodes: []EpisodeStats{{Reward: 1}, {Reward: 2}, {Reward: 3}}}
	if h.FinalMeanReward(2) != 2.5 {
		t.Fatalf("FinalMeanReward(2) = %v", h.FinalMeanReward(2))
	}
	if h.FinalMeanReward(10) != 2 {
		t.Fatalf("FinalMeanReward(10) = %v", h.FinalMeanReward(10))
	}
	if (History{}).FinalMeanReward(5) != 0 {
		t.Fatal("empty history should give 0")
	}
}

func TestNewTrainerRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config should panic")
		}
	}()
	NewTrainer(tinyAgent(1), tinyProblem(), Config{Episodes: 0, BatchEpisodes: 1})
}

// TestLearningImprovesPolicy is the end-to-end learning check: on the
// smallest heterogeneous problem (Cholesky T=3 on 1 CPU + 1 GPU), a short
// A2C run must substantially improve the mean reward over its start.
func TestLearningImprovesPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("learning test skipped in -short mode")
	}
	prob := core.NewProblem(taskgraph.Cholesky, 3, 1, 1, 0)
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 16, Seed: 1})
	cfg := DefaultConfig()
	cfg.Episodes = 1500
	tr := NewTrainer(agent, prob, cfg)
	h, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	first := meanReward(h.Episodes[:100])
	last := h.FinalMeanReward(100)
	if last <= first {
		t.Fatalf("no improvement: first 100 mean %.3f, last 100 mean %.3f", first, last)
	}
	// The greedy policy should land in the vicinity of HEFT (within 2x).
	ms, err := Evaluate(agent, prob, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0] > 2*h.BaselineMakespan {
		t.Fatalf("greedy makespan %.1f still far from HEFT %.1f", ms[0], h.BaselineMakespan)
	}
}

func meanReward(eps []EpisodeStats) float64 {
	var s float64
	for _, e := range eps {
		s += e.Reward
	}
	return s / float64(len(eps))
}

func TestTrainerOnGPUOnlyPlatform(t *testing.T) {
	prob := core.Problem{
		Graph:    taskgraph.NewCholesky(3),
		Platform: platform.New(0, 2),
		Timing:   platform.TimingFor(taskgraph.Cholesky),
	}
	tr := NewTrainer(tinyAgent(8), prob, fastCfg(5))
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedAgentVariant(t *testing.T) {
	prob := core.NewProblem(taskgraph.Cholesky, 3, 1, 1, 0)
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 8, Directed: true, Seed: 1})
	cfg := fastCfg(5)
	tr := NewTrainer(agent, prob, cfg)
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
	// Directed and symmetric agents with identical weights must differ in
	// behaviour (different propagation operator).
	sym := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 8, Seed: 99})
	dir := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 8, Directed: true, Seed: 99})
	msSym, err := Evaluate(sym, prob, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	msDir, err := Evaluate(dir, prob, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// They *may* coincide by luck on a tiny DAG; check the encoded operator
	// differs instead if makespans agree.
	if msSym[0] == msDir[0] {
		t.Log("identical makespans on tiny problem; operator difference checked in core tests")
	}
}
