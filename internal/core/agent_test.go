package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"readys/internal/autograd"
	"readys/internal/nn"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

func encodeInitial(p Problem, resource, w int) *EncodedState {
	s := initialState(p)
	return EncodeFault(s, resource, taskgraph.DescendantFeatures(p.Graph), w, false, false)
}

func TestAgentForwardDistribution(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 1})
	es := encodeInitial(p, 0, 2)
	fw := agent.Forward(es)

	if want := len(es.ReadyRows) + 1; fw.NumActions != want { // ready tasks and ∅
		t.Fatalf("NumActions %d, want %d", fw.NumActions, want)
	}
	var sum float64
	for i := 0; i < fw.NumActions; i++ {
		lp := fw.LogProbs.Value.Data[i]
		if lp > 1e-9 || math.IsNaN(lp) {
			t.Fatalf("log prob %v invalid", lp)
		}
		sum += math.Exp(lp)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if fw.IdleIndex != fw.NumActions-1 {
		t.Fatalf("idle index %d", fw.IdleIndex)
	}
	if v := autograd.Scalar(fw.Value); math.IsNaN(v) {
		t.Fatal("value is NaN")
	}
}

func TestAgentForwardIdleMasked(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	agent := NewAgent(Config{Window: 1, Layers: 1, Hidden: 16, Seed: 1})
	s := initialState(p)
	s.MustAct = true
	es := EncodeFault(s, 0, taskgraph.DescendantFeatures(p.Graph), 1, false, false)
	fw := agent.Forward(es)
	if fw.IdleIndex != -1 {
		t.Fatal("idle index must be -1 when masked")
	}
	if fw.NumActions != len(es.ReadyRows) {
		t.Fatal("action space must exclude idle")
	}
}

func TestAgentForwardDeterministic(t *testing.T) {
	p := NewProblem(taskgraph.LU, 3, 1, 1, 0)
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 7})
	es := encodeInitial(p, 0, 2)
	a := agent.Forward(es)
	b := agent.Forward(es)
	if !a.LogProbs.Value.Equal(b.LogProbs.Value) || autograd.Scalar(a.Value) != autograd.Scalar(b.Value) {
		t.Fatal("forward pass must be deterministic")
	}
}

func TestAgentSeedsDiffer(t *testing.T) {
	p := NewProblem(taskgraph.LU, 3, 1, 1, 0)
	es := encodeInitial(p, 0, 2)
	a := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 1}).Forward(es)
	b := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 2}).Forward(es)
	if a.LogProbs.Value.Equal(b.LogProbs.Value) {
		t.Fatal("different seeds should give different policies")
	}
}

func TestForwardSampleRespectsDistribution(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	agent := NewAgent(Config{Window: 2, Layers: 1, Hidden: 16, Seed: 3})
	es := encodeInitial(p, 0, 2)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 8)
	const n = 5000
	fw := agent.Forward(es)
	for i := 0; i < n; i++ {
		a := sampleLogProbs(rng, fw.LogProbs.Value.Data)
		if a < 0 || a >= fw.NumActions {
			t.Fatalf("sample out of range: %d", a)
		}
		counts[a]++
	}
	for i := 0; i < fw.NumActions; i++ {
		want := math.Exp(fw.LogProbs.Value.Data[i])
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("action %d frequency %v, prob %v", i, got, want)
		}
	}
}

func TestForwardEntropyMatchesManual(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	agent := NewAgent(Config{Window: 2, Layers: 1, Hidden: 16, Seed: 4})
	fw := agent.Forward(encodeInitial(p, 0, 2))
	var want float64
	for i := 0; i < fw.NumActions; i++ {
		lp := fw.LogProbs.Value.Data[i]
		want -= math.Exp(lp) * lp
	}
	if got := autograd.Scalar(fw.Entropy()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("entropy %v, want %v", got, want)
	}
}

func TestPolicyProducesValidSchedules(t *testing.T) {
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		p := NewProblem(kind, 4, 2, 2, 0.3)
		agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 1})
		pol := NewTrainingPolicy(agent, rand.New(rand.NewSource(2)))
		res, err := p.Simulate(pol, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := sim.ValidateResult(p.Graph, p.Platform.Size(), res); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(pol.Steps) == 0 {
			t.Fatal("training policy must record steps")
		}
		if st := pol.Stats; st.Decisions != len(pol.Steps) || st.Forwards != st.Decisions {
			t.Fatalf("%d decisions, %d forwards, %d steps: a recording policy runs the network at every decision", st.Decisions, st.Forwards, len(pol.Steps))
		}
	}
}

func TestPolicyGreedyDeterministicAtSigmaZero(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 5})
	a, err := p.Simulate(NewPolicy(agent), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Simulate(NewPolicy(agent), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatal("greedy policy should be deterministic for a fixed seed")
	}
}

func TestCheckpointTransferRoundTrip(t *testing.T) {
	cfg := Config{Window: 2, Layers: 2, Hidden: 16, Seed: 6}
	a := NewAgent(cfg)
	path := filepath.Join(t.TempDir(), "agent.json")
	if err := a.SaveCheckpoint(path, map[string]string{"kernel": "cholesky"}); err != nil {
		t.Fatal(err)
	}

	b := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 999}) // different init
	meta, err := b.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta["kernel"] != "cholesky" || meta["hidden"] != "16" {
		t.Fatalf("meta = %v", meta)
	}
	// The two agents must now act identically — on a *different* problem
	// size too (transfer): T=6 instead of 4.
	p6 := NewProblem(taskgraph.Cholesky, 6, 2, 2, 0)
	ra, err := p6.Simulate(NewPolicy(a), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := p6.Simulate(NewPolicy(b), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Makespan != rb.Makespan {
		t.Fatalf("restored agent behaves differently: %v vs %v", ra.Makespan, rb.Makespan)
	}
}

func TestCheckpointArchitectureMismatch(t *testing.T) {
	a := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 1})
	path := filepath.Join(t.TempDir(), "agent.json")
	if err := a.SaveCheckpoint(path, nil); err != nil {
		t.Fatal(err)
	}
	b := NewAgent(Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	if _, err := b.LoadCheckpoint(path); err == nil {
		t.Fatal("hidden-size mismatch must fail to load")
	}
	c := NewAgent(Config{Window: 2, Layers: 3, Hidden: 16, Seed: 1})
	if _, err := c.LoadCheckpoint(path); err == nil {
		t.Fatal("layer-count mismatch must fail to load")
	}
}

// FuzzLoadCheckpoint: a checkpoint loaded into the committed models'
// architecture either fails or sets every parameter, and what it loaded saves
// and loads back bit for bit. The seeds are a committed model, a truncated
// copy, a wrong version, a hidden-size mismatch and a missing parameter.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1}
	model, err := os.ReadFile("../../models/readys_cholesky_T2_2c2g_w2_l2_h32.json")
	if err != nil {
		f.Fatal(err)
	}
	save := func(params *nn.ParamSet) []byte {
		var buf bytes.Buffer
		if err := nn.SaveCheckpoint(&buf, params, nil); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	narrow := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 1})
	partial := nn.NewParamSet()
	partial.Add(NewAgent(cfg).Params().All()[1:]...)
	broken := [][]byte{
		model[:len(model)/2],
		bytes.Replace(model, []byte(`"version":1`), []byte(`"version":2`), 1),
		save(narrow.Params()),
		save(partial),
	}
	if _, err := nn.LoadCheckpoint(bytes.NewReader(model), NewAgent(cfg).Params()); err != nil {
		f.Fatalf("the committed model does not load: %v", err)
	}
	f.Add(model)
	for i, seed := range broken {
		if _, err := nn.LoadCheckpoint(bytes.NewReader(seed), NewAgent(cfg).Params()); err == nil {
			f.Fatalf("broken seed %d loads", i)
		}
		f.Add(seed)
	}

	// nanAgent returns an agent whose every value is NaN, which no JSON
	// number decodes to: a NaN left after a load is a parameter not loaded.
	nanAgent := func() *Agent {
		a := NewAgent(cfg)
		for _, p := range a.Params().All() {
			for i := range p.Value.Data {
				p.Value.Data[i] = math.NaN()
			}
		}
		return a
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := nanAgent()
		if _, err := nn.LoadCheckpoint(bytes.NewReader(data), a.Params()); err != nil {
			return
		}
		b := nanAgent()
		if _, err := nn.LoadCheckpoint(bytes.NewReader(save(a.Params())), b.Params()); err != nil {
			t.Fatalf("a loaded checkpoint does not load back once saved: %v", err)
		}
		for k, p := range a.Params().All() {
			q := b.Params().All()[k]
			for i, v := range p.Value.Data {
				if math.IsNaN(v) {
					t.Fatalf("%s[%d] was not loaded", p.Name, i)
				}
				if math.Float64bits(v) != math.Float64bits(q.Value.Data[i]) {
					t.Fatalf("%s[%d] = %v saves and loads back as %v", p.Name, i, v, q.Value.Data[i])
				}
			}
		}
	})
}

func TestAgentParamCount(t *testing.T) {
	cfg := Config{Window: 2, Layers: 2, Hidden: 64, Seed: 1}
	a := NewAgent(cfg)
	h := cfg.Hidden
	want := (NodeFeatureWidth(false)*h + h) + // input
		2*(h*h+h) + // 2 GCN layers
		(h + 1) + // actor
		(NumProcFeatures*h + h) + // proc
		(2*h + 1) + // idle
		(h + 1) // critic
	got := 0
	for _, p := range a.Params().All() {
		got += len(p.Value.Data)
	}
	if got != want {
		t.Fatalf("param count %d, want %d", got, want)
	}
}

func TestAgentWindowZeroLayersZero(t *testing.T) {
	// Degenerate config (w=0, g=0): the net sees only ready/running tasks
	// through the input projection; must still produce valid distributions.
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	agent := NewAgent(Config{Window: 0, Layers: 0, Hidden: 8, Seed: 1})
	res, err := p.Simulate(NewPolicy(agent), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ValidateResult(p.Graph, p.Platform.Size(), res); err != nil {
		t.Fatal(err)
	}
}

func TestNewAgentRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config should panic")
		}
	}()
	NewAgent(Config{Window: 1, Layers: 1, Hidden: 0})
}
