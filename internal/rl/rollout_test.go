package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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
// workers, collects a long episode batch, a short one, a long one again, a
// stream batch (another graph per arrival), and a batch after both policies
// were left in the middle of an episode by an error; every result — outcome,
// steps, and each decision state read back from the log — must equal what a
// fresh policy recording into a fresh log gives from the same seed. Run under
// the race detector by `make race`.
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
		results := pool.collect(agent, prob, arr, baseline, seed, start, n, workers)
		var fresh rolloutPool
		want := fresh.collect(agent, prob, arr, baseline, seed, start, n, 1)
		// One fresh policy rolled all n out: compare each to a policy that
		// never saw another episode too.
		for k := range results {
			got, ctx := results[k], fmt.Sprintf("%s episode %d", name, start+k)
			var alone rolloutPool
			only := alone.collect(agent, prob, arr, baseline, seed, start+k, 1, 1)[0]
			for _, w := range []rolloutResult{want[k], only} {
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
					if st.Action != ws.Action || st.LogProb != ws.LogProb || st.Entropy != ws.Entropy || st.Value != ws.Value || st.Idle() != ws.Idle() {
						t.Fatalf("%s decision %d: step differs from a fresh policy's", ctx, i)
					}
					if !statesBitEqual(got.log.State(i, &a), w.log.State(i, &b)) {
						t.Fatalf("%s decision %d: state differs from a fresh log's", ctx, i)
					}
				}
			}
		}
		if len(pool.workers) != workers || len(pool.logs) != n {
			t.Fatalf("%s: pool holds %d policies and %d logs, want %d and %d", name, len(pool.workers), len(pool.logs), workers, n)
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

// TestEvaluateResidentPolicyBitIdentical: Evaluate's one policy, reset by the
// simulator at each run, gives the makespans of one fresh policy per run.
func TestEvaluateResidentPolicyBitIdentical(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 8, Seed: 3})
	const runs, seed = 5, 13
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		for _, faults := range []bool{false, true} {
			prob := core.NewProblem(kind, 4, 2, 2, 0.1)
			if faults {
				prob.Faults = faultSpec()
			}
			got, err := Evaluate(agent, prob, runs, seed)
			if err != nil {
				t.Fatal(err)
			}
			distinct := map[float64]bool{}
			for i := 0; i < runs; i++ {
				res, err := prob.Simulate(core.NewPolicy(agent), rand.New(rand.NewSource(seed+int64(i))))
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != res.Makespan {
					t.Fatalf("%v faults=%v run %d: makespan %v on the resident policy, %v on a fresh one", kind, faults, i, got[i], res.Makespan)
				}
				distinct[res.Makespan] = true
			}
			if len(distinct) < 2 {
				t.Fatalf("%v faults=%v: every run has the same makespan; the runs do not differ enough to tell policies apart", kind, faults)
			}
		}
	}
}
