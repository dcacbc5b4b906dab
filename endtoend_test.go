package readys_test

import (
	"fmt"
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
	for seed := int64(1); seed <= 3; seed++ {
		if res, err := prob.Simulate(core.NewPolicy(agent), rand.New(rand.NewSource(seed))); err != nil || res.Makespan <= 0 {
			t.Fatalf("seed %d: greedy makespan %v, err %v", seed, res.Makespan, err)
		}
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
	// Transfer to a larger size works out of the box.
	big := core.NewProblem(taskgraph.Cholesky, 6, 1, 1, 0.1)
	res, err := big.Simulate(core.NewPolicy(restored), rand.New(rand.NewSource(2)))
	if err == nil {
		err = sim.ValidateResult(big.Graph, big.Platform.Size(), res)
	}
	if err != nil {
		t.Fatalf("transfer schedule invalid: %v", err)
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
// on their flags before they build anything: the kind parser,
// exp.CheckProblem, exp.CheckFaultRate, exp.CheckCount on readys-train's
// counts and exp.CheckTrainFlags on the flags each of its modes reads. A bad value gives an error, never a panic in taskgraph, platform,
// core or rl or a schedule the validator rejects.
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
		{"graph random", "random", 4, 1, 1, 0, "no sized generator"},
		{"platform empty", "cholesky", 4, 0, 0, 0, "at least one resource"},
		{"platform negative CPUs", "cholesky", 4, -1, 2, 0, "resource counts"},
		{"platform negative GPUs", "cholesky", 4, 2, -1, 0, "resource counts"},
		{"problem T=0", "cholesky", 0, 2, 2, 0.1, "tile count"},
		{"problem empty platform", "qr", 4, 0, 0, 0.1, "at least one resource"},
		{"problem sigma<0", "cholesky", 4, 2, 2, -0.1, "sigma"},
		{"problem sigma NaN", "cholesky", 4, 2, 2, math.NaN(), "sigma"},
		{"problem sigma +Inf", "cholesky", 4, 2, 2, math.Inf(1), "sigma"},
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
	for _, tc := range []struct {
		name string
		rate float64
		ok   bool
	}{
		{"fault rate NaN", math.NaN(), false},
		{"fault rate -1", -1, false},
		{"fault rate +Inf", math.Inf(1), false},
		{"fault rate 0", 0, true},
		{"fault rate 1", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := exp.CheckFaultRate(tc.rate)
			if (err == nil) != tc.ok || (err != nil && !strings.Contains(err.Error(), "fault rate")) {
				t.Fatalf("CheckFaultRate(%g) = %v, want ok=%v", tc.rate, err, tc.ok)
			}
		})
	}
	// readys-train's counts, with the floor it checks each against.
	for _, tc := range []struct {
		name     string
		flag     string
		n, least int
	}{
		{"train episodes -5", "-episodes", -5, 0},
		{"train episodes 0", "-episodes", 0, 0},
		{"train workers -2", "-workers", -2, 0},
		{"train workers 0", "-workers", 0, 0},
		{"train window -1", "-window", -1, 0},
		{"train window 0", "-window", 0, 0},
		{"train layers -1", "-layers", -1, 0},
		{"train layers 0", "-layers", 0, 0},
		{"train hidden 0", "-hidden", 0, 1},
		{"train hidden 1", "-hidden", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := exp.CheckCount(tc.flag, tc.n, tc.least)
			if ok := tc.n >= tc.least; (err == nil) != ok || (err != nil && !strings.Contains(err.Error(), tc.flag+" must be >= ")) {
				t.Fatalf("CheckCount(%q, %d, %d) = %v, want ok=%v", tc.flag, tc.n, tc.least, err, ok)
			}
		})
	}
	// readys-train's modes, each with the flags set on its command line (as
	// flag.Visit names them) and the ones it must refuse, in that order.
	for _, tc := range []struct {
		name        string
		all, stream bool
		set         []string
		want        string // the error; "" for none
	}{
		{"train one reads every flag", false, false,
			[]string{"kind", "T", "cpus", "gpus", "episodes", "out", "stream", "window", "layers", "hidden", "seed", "quiet", "telemetry", "workers", "fault-rate"}, ""},
		{"train -all reads where and how", true, false, []string{"all", "out", "quiet", "telemetry", "workers"}, ""},
		{"train -all -episodes -fault-rate", true, false, []string{"all", "episodes", "out", "fault-rate"}, "-all does not read -episodes, -fault-rate"},
		{"train -all problem and architecture", true, false,
			[]string{"kind", "T", "cpus", "gpus", "all", "stream", "window", "layers", "hidden", "seed"},
			"-all does not read -kind, -T, -cpus, -gpus, -stream, -window, -layers, -hidden, -seed"},
		{"train -stream reads budget and faults", false, true, []string{"stream", "episodes", "fault-rate", "workers", "all"}, ""},
		{"train -stream problem and architecture", false, true,
			[]string{"kind", "T", "cpus", "gpus", "episodes", "stream", "window", "layers", "hidden", "seed"},
			"-stream does not read -kind, -T, -cpus, -gpus, -window, -layers, -hidden, -seed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := exp.CheckTrainFlags(tc.all, tc.stream, tc.set)
			if (err == nil) != (tc.want == "") || (err != nil && err.Error() != tc.want) {
				t.Fatalf("CheckTrainFlags(%v, %v, %q) = %v, want %q (none if empty)", tc.all, tc.stream, tc.set, err, tc.want)
			}
		})
	}
	// The pool's logs are sized from the worker count: the trainer refuses a
	// negative one, as it does an empty budget.
	t.Run("trainer workers -1", func(t *testing.T) {
		cfg := rl.DefaultConfig()
		cfg.Episodes, cfg.RolloutWorkers = 1, -1
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "rl: invalid config") {
				t.Fatalf("NewTrainer with %d workers: recovered %v, want an invalid-config panic", cfg.RolloutWorkers, r)
			}
		}()
		rl.NewTrainer(testAgent(8, 1), core.NewProblem(taskgraph.Cholesky, 2, 1, 1, 0), cfg)
	})
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
