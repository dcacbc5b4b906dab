package rl

import (
	"math"
	"testing"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

func tinyArrivals() *stream.PoissonProcess {
	return &stream.PoissonProcess{
		Rate:  4,
		Jobs:  3,
		Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU},
		Sizes: []int{2},
	}
}

// streamProblem carries only what stream training reads: platform and σ.
func streamProblem() core.Problem {
	return core.Problem{Platform: platform.New(1, 1), Sigma: 0.05}
}

func TestStreamTrainingRunsAndRewardsConsistent(t *testing.T) {
	cfg := fastCfg(6)
	cfg.BatchEpisodes = 3
	cfg.Arrivals = tinyArrivals()
	tr := NewTrainer(tinyAgent(1), streamProblem(), cfg)
	if tr.baseline != 0 {
		t.Fatalf("stream trainer has a single-DAG baseline: %v", tr.baseline)
	}
	h, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Episodes) != 6 {
		t.Fatalf("history has %d episodes", len(h.Episodes))
	}
	if h.BaselineMakespan != 0 {
		t.Fatalf("stream history claims a global baseline: %v", h.BaselineMakespan)
	}
	for _, e := range h.Episodes {
		if e.Makespan <= 0 || math.IsNaN(e.Reward) || math.IsNaN(e.Loss) || math.IsNaN(e.Entropy) {
			t.Fatalf("bad stream episode stats: %+v", e)
		}
	}
}

// TestStreamTrainingWorkerInvariance extends the repo's determinism criterion
// to stream training: the History (and final parameters) must be bit-identical
// whether episodes roll out sequentially or on 4 workers.
func TestStreamTrainingWorkerInvariance(t *testing.T) {
	run := func(workers int) (History, string) {
		agent := tinyAgent(7)
		cfg := fastCfg(8)
		cfg.BatchEpisodes = 4
		cfg.RolloutWorkers = workers
		cfg.Arrivals = tinyArrivals()
		h, err := NewTrainer(agent, streamProblem(), cfg).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return h, paramHash(agent.Params())
	}
	seqHist, seqParams := run(1)
	parHist, parParams := run(4)
	historiesIdentical(t, seqHist, parHist, "a2c-stream")
	if seqParams != parParams {
		t.Fatal("stream training: final parameters differ between sequential and parallel rollouts")
	}
}

// TestStreamTrainingUnderFaults trains with mid-stream fault injection and
// fault-state features on, pinning the full stream-training surface.
func TestStreamTrainingUnderFaults(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 2, FaultFeatures: true})
	cfg := fastCfg(4)
	cfg.BatchEpisodes = 2
	cfg.Arrivals = tinyArrivals()
	cfg.Faults = sim.SpecForRate(0.5, 0) // horizon defaulted per episode
	h, err := NewTrainer(agent, streamProblem(), cfg).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range h.Episodes {
		if math.IsNaN(e.Reward) || math.IsInf(e.Reward, 0) {
			t.Fatalf("faulted stream episode reward broken: %+v", e)
		}
	}
}
