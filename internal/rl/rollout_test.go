package rl

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"readys/internal/core"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

// statesBitEqual compares what the update reads of two decision states.
func statesBitEqual(a, b *core.EncodedState) bool {
	floats := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	ints := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return a.X.Rows == b.X.Rows && a.X.Cols == b.X.Cols && floats(a.X.Data, b.X.Data) &&
		ints(a.Norm.RowPtr, b.Norm.RowPtr) && ints(a.Norm.Col, b.Norm.Col) && floats(a.Norm.Val, b.Norm.Val) &&
		ints(a.Nodes, b.Nodes) && ints(a.ReadyRows, b.ReadyRows) && ints(a.ReadyTasks, b.ReadyTasks) &&
		floats(a.Proc.Data, b.Proc.Data) && a.AllowIdle == b.AllowIdle
}

// collectAll collects a batch to its end, handing check each result as it is
// in. A result and its log are the pool's again once check returns: a later
// episode of the batch records into the same log.
func collectAll(rp *rolloutPool, t *Trainer, start, n int, check func(k int, r *rolloutResult)) {
	rp.collect(t, start, n)
	defer rp.stop()
	for k := 0; k < n; k++ {
		check(k, rp.wait(k))
		rp.release(k)
	}
}

// sabotage returns an invalid task from its n-th decision on, so the episode
// ends in an error with the policy and its log in mid-episode condition.
type sabotage struct {
	*core.Policy
	n int
}

func (p *sabotage) Decide(s *sim.State, r int) int {
	if p.n--; p.n < 0 {
		return s.Graph.NumTasks() // no such task
	}
	return p.Policy.Decide(s, r)
}

// TestEpisodeLogReuseIsolated: nothing of an earlier episode shows in what a
// reused episode log and resident rollout policy record. One pool, two
// workers — three logs, each reused within the batch — collects a long
// episode batch, a short one, a long one again, a stream batch (another graph
// per arrival), and a batch after both policies were left in the middle of an
// episode by an error; every result — outcome, steps, and each decision state
// read back from the log — must equal what a fresh policy recording into a
// fresh log gives from the same seed. Run under the race detector by
// `make race`.
func TestEpisodeLogReuseIsolated(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 8, Seed: 3})
	long := core.NewProblem(taskgraph.Cholesky, 5, 2, 2, 0.1)
	long.Faults = faultSpec()
	short := core.NewProblem(taskgraph.LU, 2, 2, 2, 0.1)
	arrivals := &stream.PoissonProcess{
		Rate: 4, Jobs: 3, Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU}, Sizes: []int{2, 3},
	}
	const n, workers, seed = 4, 2, 9

	var pool rolloutPool
	start := 0
	check := func(name string, prob core.Problem, arr *stream.PoissonProcess) {
		t.Helper()
		var baseline float64
		if arr == nil {
			baseline = prob.HEFTBaseline()
		}
		trainer := func(workers int) *Trainer {
			cfg := Config{Seed: seed, RolloutWorkers: workers, Arrivals: arr}
			return &Trainer{Agent: agent, Problem: prob, Cfg: cfg, baseline: baseline}
		}
		// One fresh policy rolls the batch out beside the pool, in step with
		// it; each episode is also compared to a policy that never saw another
		// episode.
		var fresh rolloutPool
		fresh.collect(trainer(1), start, n)
		defer fresh.stop()
		collectAll(&pool, trainer(workers), start, n, func(k int, got *rolloutResult) {
			want := fresh.wait(k)
			defer fresh.release(k)
			ctx := fmt.Sprintf("%s episode %d", name, start+k)
			var alone rolloutPool
			collectAll(&alone, trainer(1), start+k, 1, func(_ int, only *rolloutResult) {
				for _, w := range []*rolloutResult{want, only} {
					if got.err != nil || w.err != nil {
						t.Fatalf("%s: errors %v / %v", ctx, got.err, w.err)
					}
					steps, wsteps := got.log.Steps(), w.log.Steps()
					if got.ep != w.ep || got.makespan != w.makespan || got.reward != w.reward || got.entropy != w.entropy || len(steps) != len(wsteps) {
						t.Fatalf("%s: outcome (%v, %v, %v) over %d decisions, fresh (%v, %v, %v) over %d", ctx,
							got.makespan, got.reward, got.entropy, len(steps), w.makespan, w.reward, w.entropy, len(wsteps))
					}
					var a, b core.EncodedState
					for i, st := range steps {
						ws := wsteps[i]
						if st.Action != ws.Action || st.LogProb != ws.LogProb || st.Entropy != ws.Entropy || st.Value != ws.Value {
							t.Fatalf("%s decision %d: step differs from a fresh policy's", ctx, i)
						}
						if !statesBitEqual(got.log.State(i, &a), w.log.State(i, &b)) {
							t.Fatalf("%s decision %d: state differs from a fresh log's", ctx, i)
						}
					}
				}
			})
		})
		if len(pool.workers) != workers || len(pool.logs) != min(n, workers+1) {
			t.Fatalf("%s: pool holds %d policies and %d logs, want %d and %d", name, len(pool.workers), len(pool.logs), workers, min(n, workers+1))
		}
		start += n
	}

	check("long", long, nil)
	check("short after long", short, nil)
	check("long after short", long, nil)
	check("stream", long, arrivals)
	check("short after stream", short, nil)

	// Leave every resident policy, and two logs, in the middle of an episode.
	for i, w := range pool.workers {
		w.pol.Log = pool.logs[i]
		w.rng.Seed(77)
		if _, err := long.Simulate(&sabotage{Policy: w.pol, n: 10}, w.rng); err == nil {
			t.Fatal("sabotaged episode returned no error")
		}
		if len(w.pol.Steps) != 10 {
			t.Fatalf("sabotaged episode recorded %d decisions, want 10", len(w.pol.Steps))
		}
	}
	check("long after an error", long, nil)
	check("short after an error", short, nil)
}

// TestRunStopsRolloutsOnError: the update overlaps the batch's rollouts, so
// an episode that fails mid-batch leaves later ones in flight, or waiting for
// a log. An infinite fault horizon puts every drawn outage at +Inf, which the
// simulator refuses; at seed 12 only episode 3 of the first batch of 8 draws
// one, after the batch's 2 (1 worker) or 3 (2 workers) logs have all been
// used once. At 1 and 2 workers, Run must return that episode's error, no
// rollout of it may run or write into the pool once it has returned, and a
// next Run on the same trainer, the horizon fixed, must be bit-identical to a
// fresh trainer's (no update was applied before the failure). In the blocked
// case the update holds back until episodes 3 to 5 fill every log and both
// workers wait for one: stop must wake them.
func TestRunStopsRolloutsOnError(t *testing.T) {
	const seed, failing = 12, 3
	good := tinyProblem()
	bad := good
	bad.Faults = sim.FaultSpec{Horizon: math.Inf(1), OutageRate: 0.05}
	cfg := fastCfg(16)
	cfg.Seed = seed

	// The oracle: which episodes of the first batch fail, and how.
	oracle := &Trainer{Agent: tinyAgent(3), Problem: bad, Cfg: Config{Seed: seed, RolloutWorkers: 1}, baseline: good.HEFTBaseline()}
	var pool rolloutPool
	var wantErr error
	collectAll(&pool, oracle, 0, cfg.BatchEpisodes, func(k int, r *rolloutResult) {
		if (r.err != nil) != (k == failing) {
			t.Fatalf("episode %d: error %v; only episode %d may fail", k, r.err, failing)
		}
		if k == failing {
			wantErr = r.err
		}
	})

	for _, tc := range []struct {
		name    string
		workers int
		blocked bool
	}{
		{"workers=1", 1, false},
		{"workers=2", 2, false},
		{"workers=2,blocked", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg.RolloutWorkers = tc.workers
			before := runtime.NumGoroutine()
			tr := NewTrainer(tinyAgent(3), bad, cfg)
			var progress func(EpisodeStats)
			if tc.blocked {
				progress = func(st EpisodeStats) {
					if st.Episode == failing-1 {
						awaitBlockedWorkers(t, &tr.rollouts, tc.workers)
					}
				}
			}
			hist, err := tr.Run(progress)
			if err == nil || errors.Unwrap(err).Error() != wantErr.Error() || err.Error() != fmt.Sprintf("rl: episode %d: %v", failing, wantErr) {
				t.Fatalf("Run returned %v, want episode %d's %v", err, failing, wantErr)
			}
			if len(hist.Episodes) != failing {
				t.Fatalf("history holds %d episodes, want the %d before the failure", len(hist.Episodes), failing)
			}
			if len(tr.rollouts.logs) != tc.workers+1 {
				t.Fatalf("the pool holds %d logs, want %d", len(tr.rollouts.logs), tc.workers+1)
			}
			// Nothing may write into the pool now: snapshot it, let any
			// straggler run, and compare.
			results := append([]rolloutResult(nil), tr.rollouts.results...)
			steps := make([]int, len(tr.rollouts.logs))
			for i, l := range tr.rollouts.logs {
				steps[i] = len(l.Steps())
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after Run returned, %d before it", n, before)
			}
			for i, r := range tr.rollouts.results {
				if r != results[i] || len(tr.rollouts.logs[i].Steps()) != steps[i] {
					t.Fatalf("slot %d changed after Run returned", i)
				}
			}

			tr.Problem = good
			got, err := tr.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewTrainer(tinyAgent(3), good, cfg)
			want, err := fresh.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := toGolden(got, paramHash(tr.Agent.Params())), toGolden(want, paramHash(fresh.Agent.Params())); !reflect.DeepEqual(g, w) {
				t.Fatalf("after an error, the history or weights differ from a fresh trainer's:\n  got  %+v\n  want %+v", g, w)
			}
		})
	}
}

// awaitBlockedWorkers returns once every log of rp holds a result the update
// has not taken and workers goroutines wait in rolloutPool.await for a log
// to come free. It runs on the update's goroutine, so nothing is taken
// meanwhile.
func awaitBlockedWorkers(t *testing.T, rp *rolloutPool, workers int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		full := true
		for _, c := range rp.ready[:rp.slots] {
			full = full && len(c) == 1
		}
		stacks := buf[:runtime.Stack(buf, true)]
		if full && bytes.Count(stacks, []byte("rl.(*rolloutPool).await(")) == workers {
			return
		}
	}
	t.Errorf("the workers did not fill every log and wait for one within 10 s")
}
