package exp

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"readys/internal/core"
	"readys/internal/taskgraph"
)

// TestAblationRunsWithTinyBudget: the ablation loads its one committed
// variant and trains the others in memory at the budget it is given, on
// every run: the models directory it reads is byte for byte what it was, and
// budgets 9 and 8 give different w=0_g=1 rows. (A budget up to 8 is one
// batch and one update, and at 2, 3 or 8 that update leaves the w=0_g=1 rows
// as they were; 9 takes a second update.)
func TestAblationRunsWithTinyBudget(t *testing.T) {
	const name = "readys_cholesky_T4_2c2g_w2_l2_h32.json"
	data, err := os.ReadFile(filepath.Join("../../models", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := Ablation(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	// 6 variants × 2 σ points.
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("ragged row %v", row)
		}
	}
	tab2, err := Ablation(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][0] != "w=0_g=1" || slices.Equal(tab.Rows[0], tab2.Rows[0]) && slices.Equal(tab.Rows[1], tab2.Rows[1]) {
		t.Fatalf("w=0_g=1 rows at budget 9 %v and at budget 8 %v: the second run did not train", tab.Rows[:2], tab2.Rows[:2])
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("the ablation left %d files in the models directory (%v)", len(entries), err)
	}
	if after, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("the ablation changed %s (%v)", name, err)
	}
}

// TestAblationNoIdleRowSamples: the ablation's no-idle row changes only the
// ∅ mask. Its HEFT and MCT columns are the with-∅ row's, and its READYS column
// is a fresh ∅-masked policy on each seed.
func TestAblationNoIdleRowSamples(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 8, Seed: 5})
	const runs, seed = 3, 44
	for _, sigma := range []float64{0, 0.3} {
		with, err := compareWithPolicy(agent, taskgraph.Cholesky, 4, 2, 2, sigma, runs, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		without, err := compareWithPolicy(agent, taskgraph.Cholesky, 4, 2, 2, sigma, runs, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if without.HEFT != with.HEFT || without.MCT != with.MCT {
			t.Fatalf("σ=%g: no-idle baselines %+v / %+v, with-∅ %+v / %+v", sigma, without.HEFT, without.MCT, with.HEFT, with.MCT)
		}
		prob := core.NewProblem(taskgraph.Cholesky, 4, 2, 2, sigma)
		var ms []float64
		for i := 0; i < runs; i++ {
			pol := core.NewPolicy(agent)
			pol.DisableIdle = true
			res, err := prob.Simulate(pol, rand.New(rand.NewSource(seed+int64(i))))
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, res.Makespan)
		}
		if want := Summarise(ms); without.READYS != want {
			t.Fatalf("σ=%g: no-idle READYS %+v, a fresh ∅-masked policy %+v", sigma, without.READYS, want)
		}
	}
}

func TestRandomSearchSamplesWithinGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials, tab, err := RandomSearch(rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 4 || len(tab.Rows) != 4 {
		t.Fatalf("%d trials", len(trials))
	}
	entropyOK := map[float64]bool{1e-3: true, 5e-3: true, 1e-2: true}
	unrollOK := map[int]bool{20: true, 40: true, 60: true, 80: true}
	for _, tr := range trials {
		if tr.Window < 0 || tr.Window > 2 {
			t.Fatalf("window %d outside [0,2]", tr.Window)
		}
		if tr.Layers < 1 || tr.Layers > 3 {
			t.Fatalf("layers %d outside [1,3]", tr.Layers)
		}
		if !entropyOK[tr.EntropyBeta] || !unrollOK[tr.Unroll] {
			t.Fatalf("off-grid trial %+v", tr)
		}
		if tr.GreedyMs <= 0 {
			t.Fatalf("no greedy evaluation in %+v", tr)
		}
	}
}

func TestSearchHelpers(t *testing.T) {
	spec := DefaultAgentSpec(taskgraph.Cholesky, 2, 1, 1)
	spec.Hidden, spec.Layers, spec.Window = 8, 1, 1
	agent, hist, err := trainWithOverrides(spec, 3, 1e-3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Episodes) != 3 {
		t.Fatal("override training wrong length")
	}
	ms, err := newEvaluator().makespans(spec.Problem(), []scheduler{{"READYS", core.NewPolicy(agent)}}, 2, 1)
	if err != nil || ms[0][0] <= 0 {
		t.Fatalf("evaluation %v err %v", ms, err)
	}
}
