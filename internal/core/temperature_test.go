package core

import (
	"math"
	"math/rand"
	"testing"

	"readys/internal/taskgraph"
)

func TestSampleTemperatureZeroIsArgmax(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	agent := NewAgent(Config{Window: 2, Layers: 1, Hidden: 16, Seed: 3})
	fw := agent.Forward(encodeInitial(p, 0, 2))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		if sampleTemperatureLogProbs(rng, fw.LogProbs.Value.Data, 0) != argmaxLogProbs(fw.LogProbs.Value.Data) {
			t.Fatal("τ=0 must equal argmax")
		}
	}
}

func TestSampleTemperatureLowConcentratesOnArgmax(t *testing.T) {
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	agent := NewAgent(Config{Window: 2, Layers: 1, Hidden: 16, Seed: 4})
	fw := agent.Forward(encodeInitial(p, 0, 2))
	rng := rand.New(rand.NewSource(2))
	best := argmaxLogProbs(fw.LogProbs.Value.Data)
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if sampleTemperatureLogProbs(rng, fw.LogProbs.Value.Data, 0.05) == best {
			hits++
		}
	}
	if float64(hits)/n < 0.95 {
		t.Fatalf("τ=0.05 picked argmax only %d/%d times", hits, n)
	}
}

func TestSampleTemperatureOneMatchesPolicy(t *testing.T) {
	// τ=1 must reproduce the raw distribution (statistically).
	p := NewProblem(taskgraph.Cholesky, 4, 2, 2, 0)
	agent := NewAgent(Config{Window: 2, Layers: 1, Hidden: 16, Seed: 5})
	fw := agent.Forward(encodeInitial(p, 0, 2))
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, fw.NumActions)
	const n = 8000
	for i := 0; i < n; i++ {
		counts[sampleTemperatureLogProbs(rng, fw.LogProbs.Value.Data, 1)]++
	}
	for i := 0; i < fw.NumActions; i++ {
		want := math.Exp(fw.LogProbs.Value.Data[i])
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("action %d: frequency %.3f vs probability %.3f", i, got, want)
		}
	}
}

func TestSampleTemperatureAlwaysInRange(t *testing.T) {
	p := NewProblem(taskgraph.LU, 3, 1, 1, 0)
	agent := NewAgent(Config{Window: 1, Layers: 1, Hidden: 8, Seed: 6})
	fw := agent.Forward(encodeInitial(p, 0, 1))
	rng := rand.New(rand.NewSource(4))
	for _, tau := range []float64{0.01, 0.25, 1, 4} {
		for i := 0; i < 200; i++ {
			a := sampleTemperatureLogProbs(rng, fw.LogProbs.Value.Data, tau)
			if a < 0 || a >= fw.NumActions {
				t.Fatalf("τ=%v sampled out-of-range action %d", tau, a)
			}
		}
	}
}

func TestPolicyTemperatureModeValidSchedules(t *testing.T) {
	p := NewProblem(taskgraph.QR, 4, 2, 2, 0.2)
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 7})
	pol := &Policy{Agent: agent, Temperature: 0.25, Rng: rand.New(rand.NewSource(1))}
	res, err := p.Simulate(pol, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != p.Graph.NumTasks() {
		t.Fatal("incomplete schedule")
	}
}
