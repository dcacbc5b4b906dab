package rl

import (
	"testing"
)

// historiesIdentical compares two training curves field by field, bit-exactly.
func historiesIdentical(t *testing.T, a, b History, what string) {
	t.Helper()
	if a.BaselineMakespan != b.BaselineMakespan {
		t.Fatalf("%s: baselines differ: %v vs %v", what, a.BaselineMakespan, b.BaselineMakespan)
	}
	if len(a.Episodes) != len(b.Episodes) {
		t.Fatalf("%s: episode counts differ: %d vs %d", what, len(a.Episodes), len(b.Episodes))
	}
	for i := range a.Episodes {
		if a.Episodes[i] != b.Episodes[i] {
			t.Fatalf("%s: episode %d diverges:\n  seq: %+v\n  par: %+v", what, i, a.Episodes[i], b.Episodes[i])
		}
	}
}

// TestA2CParallelRolloutsBitIdentical is the ISSUE's determinism criterion:
// training with RolloutWorkers: 4 must produce a History identical
// line-for-line to RolloutWorkers: 1, and the final parameters must match.
func TestA2CParallelRolloutsBitIdentical(t *testing.T) {
	run := func(workers int) (History, string) {
		agent := tinyAgent(7)
		cfg := fastCfg(12)
		cfg.BatchEpisodes = 4
		cfg.RolloutWorkers = workers
		tr := NewTrainer(agent, tinyProblem(), cfg)
		h, err := tr.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return h, paramHash(agent.Params())
	}
	seqHist, seqParams := run(1)
	parHist, parParams := run(4)
	historiesIdentical(t, seqHist, parHist, "a2c")
	if seqParams != parParams {
		t.Fatal("a2c: final parameters differ between sequential and parallel rollouts")
	}
}

func TestA2CDefaultWorkersBitIdentical(t *testing.T) {
	// RolloutWorkers: 0 (GOMAXPROCS, whatever this host has) must also match.
	run := func(workers int) History {
		cfg := fastCfg(8)
		cfg.BatchEpisodes = 4
		cfg.RolloutWorkers = workers
		h, err := NewTrainer(tinyAgent(3), tinyProblem(), cfg).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	historiesIdentical(t, run(1), run(0), "a2c-default-workers")
}

func TestEpisodeSeedStreamsDistinct(t *testing.T) {
	seen := map[int64]int{}
	for seed := int64(1); seed <= 3; seed++ {
		for ep := 0; ep < 200; ep++ {
			s := episodeSeed(seed, ep)
			if prev, dup := seen[s]; dup {
				t.Fatalf("episodeSeed collision: %d (prev entry %d)", s, prev)
			}
			seen[s] = ep
		}
	}
}
