package readys_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/platform"
	"readys/internal/rl"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

func testAgent(hidden, layers int) *core.Agent {
	return core.NewAgent(core.Config{Window: 2, Layers: layers, Hidden: hidden, Seed: 1})
}

// TestPublicAPIEndToEnd takes the path examples/quickstart and the commands
// take through the internal packages: build a problem, train briefly,
// evaluate, compare with the baselines, save, restore and transfer.
func TestPublicAPIEndToEnd(t *testing.T) {
	prob := core.NewProblem(taskgraph.Cholesky, 3, 1, 1, 0.1)
	if n := prob.Graph.NumTasks(); n != 10 {
		t.Fatalf("T=3 Cholesky should have 10 tasks, got %d", n)
	}
	agent := testAgent(8, 1)
	cfg := rl.DefaultConfig()
	cfg.Episodes = 10
	if hist, err := rl.NewTrainer(agent, prob, cfg).Run(nil); err != nil || len(hist.Episodes) != 10 {
		t.Fatalf("history has %d episodes, err %v", len(hist.Episodes), err)
	}
	if ms, err := rl.Evaluate(agent, prob, 3, 1); err != nil || len(ms) != 3 || ms[0] <= 0 {
		t.Fatalf("evaluate returned %v, err %v", ms, err)
	}
	if h := sched.HEFT(prob.Graph, prob.Platform, prob.Timing).Makespan; h <= 0 {
		t.Fatalf("HEFT makespan %v", h)
	}
	if res, err := prob.Simulate(sched.MCTPolicy{}, rand.New(rand.NewSource(1))); err != nil || res.Makespan <= 0 {
		t.Fatalf("MCT makespan %v, err %v", res.Makespan, err)
	}

	path := filepath.Join(t.TempDir(), "agent.json")
	if err := agent.SaveCheckpoint(path, map[string]string{"demo": "1"}); err != nil {
		t.Fatal(err)
	}
	restored := testAgent(8, 1)
	if meta, err := restored.LoadCheckpoint(path); err != nil || meta["demo"] != "1" {
		t.Fatalf("meta %v, err %v", meta, err)
	}
	// Transfer to a larger size works out of the box, on a clone too.
	big := core.NewProblem(taskgraph.Cholesky, 6, 1, 1, 0.1)
	for _, a := range []*core.Agent{restored, restored.Clone()} {
		res, err := big.Simulate(core.NewPolicy(a), rand.New(rand.NewSource(2)))
		if err == nil {
			err = sim.ValidateResult(big.Graph, big.Platform.Size(), res)
		}
		if err != nil {
			t.Fatalf("transfer schedule invalid: %v", err)
		}
	}
}

func TestPublicGraphConstructors(t *testing.T) {
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		if g := taskgraph.NewByKind(kind, 4); g.NumTasks() == 0 || g.Validate() != nil {
			t.Fatalf("%v graph invalid", kind)
		}
	}
	if p := platform.New(2, 2); p.Size() != 4 {
		t.Fatal("platform size")
	}
}

// TestConstructorValidation is the table test of the checks the commands run
// on their flags before they build anything: the kind parser and
// exp.CheckProblem. A bad value gives an error, never a panic in taskgraph or
// platform or a schedule the validator rejects.
func TestConstructorValidation(t *testing.T) {
	for _, tc := range []struct {
		name, kind    string
		T, cpus, gpus int
		sigma         float64
		want          string // in the error; "" for none
	}{
		{"ok", "cholesky", 4, 2, 2, 0.1, ""},
		{"ok sigma=0 gpus only", "qr", 1, 0, 4, 0, ""},
		{"graph T=0", "cholesky", 0, 1, 1, 0, "tile count"},
		{"graph T<0", "lu", -3, 1, 1, 0, "tile count"},
		{"graph bad kind", "tree", 4, 1, 1, 0, "unknown DAG kind"},
		{"platform empty", "cholesky", 4, 0, 0, 0, "at least one resource"},
		{"platform negative CPUs", "cholesky", 4, -1, 2, 0, "resource counts"},
		{"platform negative GPUs", "cholesky", 4, 2, -1, 0, "resource counts"},
		{"problem T=0", "cholesky", 0, 2, 2, 0.1, "tile count"},
		{"problem empty platform", "qr", 4, 0, 0, 0.1, "at least one resource"},
		{"problem sigma<0", "cholesky", 4, 2, 2, -0.1, "sigma"},
		{"problem sigma NaN", "cholesky", 4, 2, 2, math.NaN(), "sigma"},
		{"problem bad kind", "", 4, 2, 2, 0.1, "unknown DAG kind"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := taskgraph.KindFromString(tc.kind)
			if err == nil {
				err = exp.CheckProblem(tc.T, tc.cpus, tc.gpus, tc.sigma)
			}
			if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("want an error about %q (none if empty), got %v", tc.want, err)
			}
		})
	}
}

// TestCheckpointRoundTrip: an agent restored into a matching architecture
// schedules bit-identically to the original — every task on the same
// resource at the same instants, under noise — and the caller's metadata
// survives beside the architecture keys SaveCheckpoint adds.
func TestCheckpointRoundTrip(t *testing.T) {
	agent := testAgent(8, 1)
	path := filepath.Join(t.TempDir(), "agent.json")
	meta := map[string]string{"source": "round-trip test", "episodes": "0"}
	if err := agent.SaveCheckpoint(path, meta); err != nil {
		t.Fatal(err)
	}
	restored := core.NewAgent(core.Config{Window: 2, Layers: 1, Hidden: 8, Seed: 999}) // different init
	got, err := restored.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	meta["hidden"], meta["layers"], meta["window"] = "8", "1", "2"
	for k, v := range meta {
		if got[k] != v {
			t.Errorf("meta[%q] = %q, want %q", k, got[k], v)
		}
	}
	prob := core.NewProblem(taskgraph.Cholesky, 3, 1, 1, 0.1)
	want, errA := prob.Simulate(core.NewPolicy(agent), rand.New(rand.NewSource(5)))
	res, errB := prob.Simulate(core.NewPolicy(restored), rand.New(rand.NewSource(5)))
	if errA != nil || errB != nil || !reflect.DeepEqual(res, want) {
		t.Fatalf("restored agent schedules differently: makespan %g vs %g (%v, %v)", res.Makespan, want.Makespan, errB, errA)
	}
}

// TestCheckpointMismatchedConfig loads a checkpoint into agents whose
// architecture differs in width and in depth: both fail, naming the
// offending parameter.
func TestCheckpointMismatchedConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agent.json")
	if err := testAgent(8, 1).SaveCheckpoint(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := testAgent(16, 1).LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), `parameter "input.W" shape mismatch`) {
		t.Fatalf("hidden-width mismatch: want a shape mismatch naming input.W, got: %v", err)
	}
	// A deeper net: the extra GCN layer's parameters are missing entirely.
	if _, err := testAgent(8, 2).LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), `missing parameter "gcn1.`) {
		t.Fatalf("layer-count mismatch: want a missing parameter naming gcn1, got: %v", err)
	}
}

// TestCheckpointCorruptFiles: every truncated or malformed checkpoint file
// fails to load, never panics, and leaves the target agent usable.
func TestCheckpointCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := testAgent(8, 1).SaveCheckpoint(good, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{ // nil: no file at all
		"missing":       nil,
		"empty":         {},
		"truncated":     raw[:len(raw)/2],
		"not json":      []byte("not a checkpoint"),
		"wrong version": []byte(`{"version":99,"params":[]}`),
		"no params":     []byte(`{"version":1,"params":[]}`),
		"short data":    []byte(`{"version":1,"params":[{"name":"input.W","rows":9,"cols":8,"data":[1,2]}]}`),
	}
	prob := core.NewProblem(taskgraph.Cholesky, 2, 1, 1, 0)
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".json")
			if data != nil {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			target := testAgent(8, 1)
			if _, err := target.LoadCheckpoint(path); err == nil {
				t.Fatalf("loading %s succeeded, want an error", path)
			}
			if _, err := prob.Simulate(core.NewPolicy(target), rand.New(rand.NewSource(1))); err != nil {
				t.Fatalf("agent unusable after a failed load: %v", err)
			}
		})
	}
}
