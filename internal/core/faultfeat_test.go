package core

import (
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// faultedState is a Cholesky episode's initial state, on which the tests fake
// the fault context the new features read: a bumped FaultEpoch, one resource
// down, one degraded. The legacy feature set reads none of those fields, so a
// flag-off encoding must not see the difference.
func faultedState(t *testing.T) *sim.State {
	t.Helper()
	g := taskgraph.NewCholesky(4)
	plat := platform.New(2, 2)
	tt := platform.TimingFor(taskgraph.Cholesky)
	return sim.NewState(g, plat, tt, 0)
}

func cloneFeatures(s *sim.State, fault bool) []float64 {
	F := taskgraph.DescendantFeatures(s.Graph)
	es := EncodeFault(s, 0, F, 2, false, fault)
	out := append([]float64(nil), es.X.Data...)
	out = append(out, es.Proc.Data...)
	return out
}

// TestFaultFeaturesBitInertWhenOff is the flag-off inertness contract: an
// encoding taken before and after the fault context changes (FaultEpoch
// bump, resource outage, degrade) must be bit-identical with FaultFeatures
// off, and must differ with it on.
func TestFaultFeaturesBitInertWhenOff(t *testing.T) {
	s := faultedState(t)
	before := cloneFeatures(s, false)
	beforeOn := cloneFeatures(s, true)

	// Mutate only state the fault block reads and no legacy feature can:
	// with nothing running, FaultEpoch is read by nothing legacy and Speed
	// only ever scales running-task estimates.
	s.FaultEpoch = 3
	s.Speed[0] = 2.5

	after := cloneFeatures(s, false)
	afterOn := cloneFeatures(s, true)

	if len(before) != len(after) {
		t.Fatalf("flag-off widths differ: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("flag-off encoding moved at %d: %v -> %v", i, before[i], after[i])
		}
	}
	same := len(beforeOn) == len(afterOn)
	if same {
		for i := range beforeOn {
			if beforeOn[i] != afterOn[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("flag-on encoding did not react to FaultEpoch/Speed mutation")
	}
}

// TestFaultFeatureWidths pins the width arithmetic and the parameter-layout
// consequences: flag-off agents keep the legacy constants (so old
// checkpoints load), flag-on agents widen input and proc layers by the
// fault block, and the two layouts refuse to cross-load.
func TestFaultFeatureWidths(t *testing.T) {
	if ProcFeatureWidth(false) != NumProcFeatures || NodeFeatureWidth(false) != numTaskFeatures+NumProcFeatures {
		t.Fatalf("flag-off widths drifted: proc %d node %d", ProcFeatureWidth(false), NodeFeatureWidth(false))
	}
	if ProcFeatureWidth(true) != NumProcFeatures+3 || NodeFeatureWidth(true) != numTaskFeatures+NumProcFeatures+3 {
		t.Fatalf("flag-on widths wrong: proc %d node %d", ProcFeatureWidth(true), NodeFeatureWidth(true))
	}

	cfg := Config{Window: 1, Layers: 1, Hidden: 8, Seed: 5}
	off := NewAgent(cfg)
	cfg.FaultFeatures = true
	on := NewAgent(cfg)

	path := t.TempDir() + "/on.ckpt"
	if err := on.SaveCheckpoint(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := off.LoadCheckpoint(path); err == nil {
		t.Fatal("flag-off agent loaded a flag-on checkpoint: widths not enforced")
	}

	// A flag-on agent must run end-to-end on a faulted state.
	s := faultedState(t)
	s.FaultEpoch = 2
	pol := &Policy{Agent: on, Rng: rand.New(rand.NewSource(1))}
	pol.Reset(s)
	if task := pol.Decide(s, 0); task != sim.NoTask && (task < 0 || task >= s.Graph.NumTasks()) {
		t.Fatalf("flag-on policy returned invalid task %d", task)
	}
}
