package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// collectStates harvests freshly allocated EncodedStates from every decision
// of a full (faulted) episode, so batching tests run over the real state
// distribution rather than synthetic inputs. Roughly half the states keep
// AllowIdle as encoded; every fourth has it masked, mimicking DisableIdle.
func collectStates(t *testing.T, agent *Agent, kind taskgraph.Kind) []*EncodedState {
	t.Helper()
	prob := NewProblem(kind, 6, 2, 2, 0.1)
	prob.Faults = sim.SpecForRate(1.0, 0)
	pol := NewPolicy(agent)
	var states []*EncodedState
	probe := policyFunc{
		reset: pol.Reset,
		decide: func(s *sim.State, r int) int {
			es := EncodeFault(s, r, pol.unionFeats(s.Graph), agent.Cfg.Window, agent.Cfg.Directed, agent.Cfg.FaultFeatures)
			if len(states)%4 == 3 {
				es.AllowIdle = false
			}
			states = append(states, es)
			return pol.Decide(s, r)
		},
	}
	if _, err := prob.Simulate(probe, rand.New(rand.NewSource(101))); err != nil {
		t.Fatal(err)
	}
	if len(states) < 20 {
		t.Fatalf("only %d states collected; episode too small to exercise batching", len(states))
	}
	return states
}

// TestBatchedBitIdentical is the tentpole guarantee: for every precision tier
// and every batch width, the batched forward's per-state log-probabilities
// equal the B=1 serving engine's bit for bit. float64 is the acceptance
// criterion; the reduced tiers are held to the same standard against their
// own B=1 paths since their kernels are equally row-independent.
func TestBatchedBitIdentical(t *testing.T) {
	for _, ff := range []bool{false, true} {
		agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 9, FaultFeatures: ff})
		states := collectStates(t, agent, taskgraph.Cholesky)
		for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32, PrecisionInt8} {
			// B=1 reference results from the serving engine.
			ref := newServeEngine(agent, prec)
			want := make([][]float64, len(states))
			wantIdle := make([]int, len(states))
			for i, es := range states {
				lp, idle := ref.forward(es)
				want[i] = append([]float64(nil), lp...)
				wantIdle[i] = idle
			}
			for _, width := range []int{1, 2, 3, 8, 17, len(states)} {
				en := newBatchEngine(agent, prec)
				for lo := 0; lo < len(states); lo += width {
					hi := lo + width
					if hi > len(states) {
						hi = len(states)
					}
					batch := make([]*batchReq, 0, hi-lo)
					for _, es := range states[lo:hi] {
						batch = append(batch, &batchReq{es: es})
					}
					en.forwardBatch(batch)
					for j, r := range batch {
						i := lo + j
						ctx := fmt.Sprintf("ff=%v %s width=%d state %d", ff, prec, width, i)
						if r.idleIdx != wantIdle[i] || len(r.logProbs) != len(want[i]) {
							t.Fatalf("%s: action space %d/%d vs %d/%d", ctx, len(r.logProbs), r.idleIdx, len(want[i]), wantIdle[i])
						}
						for k := range want[i] {
							if math.Float64bits(r.logProbs[k]) != math.Float64bits(want[i][k]) {
								t.Fatalf("%s: logprob[%d] = %v vs B=1 %v", ctx, k, r.logProbs[k], want[i][k])
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchedPolicyResultIdentical runs whole episodes concurrently through
// one shared Batcher and requires every client's schedule to equal the
// unbatched serving policy's for the same seed — the end-to-end contract the
// serve and gateway layers rely on. Runs under -race in make check.
func TestBatchedPolicyResultIdentical(t *testing.T) {
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 5})
	const clients = 8

	type outcome struct {
		makespan  float64
		decisions int
		trace     []sim.Placement
	}
	run := func(i int, b *Batcher) (outcome, error) {
		prob := NewProblem(taskgraph.Cholesky, 6, 2, 2, 0.1)
		pol := NewServingPolicy(agent, PrecisionFloat64)
		if b != nil {
			pol.UseBatcher(b)
		}
		res, err := prob.Simulate(pol, rand.New(rand.NewSource(int64(1000+i))))
		if err != nil {
			return outcome{}, err
		}
		return outcome{makespan: res.Makespan, decisions: res.Decisions, trace: res.Trace}, nil
	}

	want := make([]outcome, clients)
	for i := range want {
		o, err := run(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = o
	}

	b := NewBatcher(agent, PrecisionFloat64, BatcherConfig{MaxWidth: clients})
	got := make([]outcome, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		b.Attach() // before spawning, so early clients wait for late ones
		go func(i int) {
			defer wg.Done()
			defer b.Detach()
			got[i], errs[i] = run(i, b)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if got[i].makespan != want[i].makespan || got[i].decisions != want[i].decisions {
			t.Fatalf("client %d: batched run diverged: %+v vs %+v", i, got[i], want[i])
		}
		if len(got[i].trace) != len(want[i].trace) {
			t.Fatalf("client %d: trace lengths differ", i)
		}
		for j := range got[i].trace {
			if got[i].trace[j] != want[i].trace[j] {
				t.Fatalf("client %d: trace[%d] %+v vs %+v", i, j, got[i].trace[j], want[i].trace[j])
			}
		}
	}
}

// TestBatcherCoalesces asserts batching actually happens under concurrency:
// with N attached clients the observed flush widths must reach beyond 1, and
// every submitted state must be answered (waits observed == flush-width sum).
func TestBatcherCoalesces(t *testing.T) {
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 5})
	const clients = 4
	var mu sync.Mutex
	maxWidth, flushedStates, waits := 0, 0, 0
	b := NewBatcher(agent, PrecisionFloat64, BatcherConfig{
		MaxWidth: 64,
		OnFlush: func(w int) {
			mu.Lock()
			if w > maxWidth {
				maxWidth = w
			}
			flushedStates += w
			mu.Unlock()
		},
		OnWait: func(time.Duration) { mu.Lock(); waits++; mu.Unlock() },
	})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		// Attach before spawning: on a single-core box a client that starts
		// alone would otherwise self-flush at width 1 and finish its episode
		// before the next goroutine is even scheduled.
		b.Attach()
		go func(i int) {
			defer wg.Done()
			defer b.Detach()
			prob := NewProblem(taskgraph.Cholesky, 5, 2, 2, 0.1)
			pol := NewServingPolicy(agent, PrecisionFloat64)
			pol.UseBatcher(b)
			if _, err := prob.Simulate(pol, rand.New(rand.NewSource(int64(i)))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if maxWidth < 2 {
		t.Fatalf("no coalescing: max observed batch width %d with %d concurrent clients", maxWidth, clients)
	}
	if maxWidth > clients {
		t.Fatalf("batch width %d exceeds client count %d", maxWidth, clients)
	}
	if waits != flushedStates || flushedStates == 0 {
		t.Fatalf("accounting mismatch: %d waits vs %d flushed states", waits, flushedStates)
	}
}

// TestBatcherDwellBound pins the liveness guarantee: a single submitter that
// never attached is answered on the dwell timer, within a margin of it.
func TestBatcherDwellBound(t *testing.T) {
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 9})
	states := collectStates(t, agent, taskgraph.Cholesky)
	dwell := 2 * time.Millisecond
	b := NewBatcher(agent, PrecisionFloat64, BatcherConfig{MaxWidth: 64, Dwell: dwell})
	ref := newServeEngine(agent, PrecisionFloat64)
	wantLP, wantIdle := ref.forward(states[0])

	start := time.Now()
	lp, idle := b.Forward(states[0], nil)
	elapsed := time.Since(start)
	if elapsed > 100*dwell {
		t.Fatalf("lone request waited %s, dwell is %s", elapsed, dwell)
	}
	if idle != wantIdle || len(lp) != len(wantLP) {
		t.Fatalf("dwell-flushed result has wrong shape")
	}
	for i := range wantLP {
		if math.Float64bits(lp[i]) != math.Float64bits(wantLP[i]) {
			t.Fatalf("dwell-flushed logprob[%d] = %v vs %v", i, lp[i], wantLP[i])
		}
	}
}

// TestBatcherAttachedFlushImmediate pins the zero-latency property at one
// client: with exactly one attached rollout every Forward flushes itself
// immediately (flush width 1, no dwell wait).
func TestBatcherAttachedFlushImmediate(t *testing.T) {
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 9})
	states := collectStates(t, agent, taskgraph.Cholesky)
	flushes := 0
	// A dwell of one minute: if any request waited for the timer the test
	// would hang well past the suite deadline instead of passing slowly.
	b := NewBatcher(agent, PrecisionFloat64, BatcherConfig{MaxWidth: 64, Dwell: time.Minute,
		OnFlush: func(w int) {
			if w != 1 {
				t.Errorf("flush width %d with a single attached client", w)
			}
			flushes++
		}})
	b.Attach()
	defer b.Detach()
	for _, es := range states[:10] {
		b.Forward(es, nil)
	}
	if flushes != 10 {
		t.Fatalf("%d flushes for 10 submits", flushes)
	}
}

// TestBatcherTrainingGuard: batched forwards skip the critic head a recorded
// step needs, so wiring a batcher into a recording policy must panic.
func TestBatcherTrainingGuard(t *testing.T) {
	agent := NewAgent(Config{Window: 1, Layers: 1, Hidden: 8, Seed: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("UseBatcher on a recording policy did not panic")
		}
	}()
	p := NewTrainingPolicy(agent, rand.New(rand.NewSource(1)))
	p.UseBatcher(NewBatcher(agent, PrecisionFloat64, BatcherConfig{}))
}
