package exp

import (
	"fmt"
	"math/rand"

	"readys/internal/core"
	"readys/internal/taskgraph"
)

// Ablation isolates the contribution of the design choices DESIGN.md calls
// out on Cholesky T=4 (2 CPUs + 2 GPUs): the window depth w, the number of
// GCN layers g, and the ∅ (idle) action. Each variant is evaluated against
// HEFT and MCT at σ ∈ {0, 0.3}. The w=2_g=2 rows, with ∅ and without, use the
// committed Cholesky T=4 agent from modelsDir, loaded before anything
// trains. Every other variant trains in memory for the given episodes, on
// every run; nothing is written.
func Ablation(modelsDir string, episodes int) (*Table, error) {
	if err := CheckCount("episodes", episodes, 1); err != nil {
		return nil, fmt.Errorf("exp: ablation: %w", err)
	}
	base := DefaultAgentSpec(taskgraph.Cholesky, 4, 2, 2)
	committed, err := LoadAgent(base, modelsDir)
	if err != nil {
		return nil, fmt.Errorf("exp: ablation: %w", err)
	}
	tab := &Table{
		Title:  "Ablation: window depth, GCN depth and the ∅ action (Cholesky T=4, 2 CPUs + 2 GPUs)",
		Header: []string{"variant", "sigma", "readys_ms", "improve_vs_heft", "improve_vs_mct"},
	}
	type variant struct {
		name        string
		window      int
		layers      int
		disableIdle bool
	}
	variants := []variant{
		{"w=0_g=1", 0, 1, false},
		{"w=1_g=1", 1, 1, false},
		{"w=2_g=1", 2, 1, false},
		{"w=2_g=2", 2, 2, false},
		{"w=2_g=3", 2, 3, false},
		{"w=2_g=2_no-idle", 2, 2, true},
	}
	for _, v := range variants {
		spec := base
		spec.Window, spec.Layers = v.window, v.layers
		agent := committed
		if spec != base {
			if agent, _, err = Train(Recipe{Spec: spec, Episodes: episodes}, "", TrainOptions{}); err != nil {
				return nil, fmt.Errorf("exp: ablation %s: %w", v.name, err)
			}
		}
		for _, sigma := range []float64{0, 0.3} {
			pt, err := compareWithPolicy(agent, taskgraph.Cholesky, 4, 2, 2, sigma, EvalRuns, 44, v.disableIdle)
			if err != nil {
				return nil, fmt.Errorf("exp: ablation %s: %w", v.name, err)
			}
			tab.AddRow(v.name, F(sigma), F(pt.READYS.Mean), F(pt.ImproveHEFT), F(pt.ImproveMCT))
		}
	}
	return tab, nil
}

// compareWithPolicy is Compare for a single σ, with READYS's ∅ action masked
// when disableIdle is set; READYS otherwise decides as in every other row.
func compareWithPolicy(agent *core.Agent, kind taskgraph.Kind, T, cpus, gpus int, sigma float64, runs int, seed int64, disableIdle bool) (ComparisonPoint, error) {
	pol := core.NewPolicy(agent)
	pol.DisableIdle = disableIdle
	return newEvaluator().compare(core.NewProblem(kind, T, cpus, gpus, sigma), pol, runs, seed)
}

// SearchTrial is one sampled configuration of the §V-D random search.
type SearchTrial struct {
	Window      int
	Layers      int
	EntropyBeta float64
	Unroll      int
	FinalReward float64
	GreedyMs    float64
}

// RandomSearch reproduces the hyper-parameter search protocol of §V-D on
// Cholesky T=4: the window w is sampled from [0, 2] and the number of GCN
// layers g from [1, 3] (random search); the entropy coefficient is sampled
// from the paper's grid {1e-3, 5e-3, 1e-2} and the unroll length from
// {20, 40, 60, 80}. Each trial trains for the given episode budget; trials
// are returned in sampling order. Fewer than one trial, or a budget below
// one episode, is an error.
func RandomSearch(rng *rand.Rand, trials, episodes int) ([]SearchTrial, *Table, error) {
	err := CheckCount("trials", trials, 1)
	if err == nil {
		err = CheckCount("episodes", episodes, 1)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("exp: search: %w", err)
	}
	entropyGrid := []float64{1e-3, 5e-3, 1e-2}
	unrollGrid := []int{20, 40, 60, 80}
	tab := &Table{
		Title:  "Random search over w, g, entropy β and unroll (Cholesky T=4, 2 CPUs + 2 GPUs)",
		Header: []string{"window", "layers", "entropy", "unroll", "final_mean_reward", "greedy_ms"},
	}
	var out []SearchTrial
	for i := 0; i < trials; i++ {
		tr := SearchTrial{
			Window:      rng.Intn(3),
			Layers:      1 + rng.Intn(3),
			EntropyBeta: entropyGrid[rng.Intn(len(entropyGrid))],
			Unroll:      unrollGrid[rng.Intn(len(unrollGrid))],
		}
		spec := DefaultAgentSpec(taskgraph.Cholesky, 4, 2, 2)
		spec.Window, spec.Layers = tr.Window, tr.Layers
		spec.Seed = int64(100 + i)
		agent, hist, err := trainWithOverrides(spec, episodes, tr.EntropyBeta, tr.Unroll)
		if err != nil {
			return nil, nil, err
		}
		tr.FinalReward = hist.FinalMeanReward(100)
		ms, err := newEvaluator().makespans(spec.Problem(), []scheduler{{"READYS", core.NewPolicy(agent)}}, 3, 45)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: search trial %d: %w", i, err)
		}
		tr.GreedyMs = Summarise(ms[0]).Mean
		out = append(out, tr)
		tab.AddRow(fmt.Sprint(tr.Window), fmt.Sprint(tr.Layers), F(tr.EntropyBeta),
			fmt.Sprint(tr.Unroll), F(tr.FinalReward), F(tr.GreedyMs))
	}
	return out, tab, nil
}
