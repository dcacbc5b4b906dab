package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

// assertStatesEqual requires two encodings of the same decision to be
// bitwise identical in every field the forward pass reads.
func assertStatesEqual(t *testing.T, want, got *EncodedState, ctx string) {
	t.Helper()
	if !intsEqual(want.Nodes, got.Nodes) {
		t.Fatalf("%s: nodes differ: %v vs %v", ctx, want.Nodes, got.Nodes)
	}
	if want.X.Rows != got.X.Rows || want.X.Cols != got.X.Cols {
		t.Fatalf("%s: X shape %dx%d vs %dx%d", ctx, want.X.Rows, want.X.Cols, got.X.Rows, got.X.Cols)
	}
	for i := range want.X.Data {
		if math.Float64bits(want.X.Data[i]) != math.Float64bits(got.X.Data[i]) {
			t.Fatalf("%s: X[%d] = %v vs %v", ctx, i, want.X.Data[i], got.X.Data[i])
		}
	}
	if !intsEqual(want.Norm.RowPtr, got.Norm.RowPtr) || !intsEqual(want.Norm.Col, got.Norm.Col) {
		t.Fatalf("%s: adjacency structure differs", ctx)
	}
	for i := range want.Norm.Val {
		if math.Float64bits(want.Norm.Val[i]) != math.Float64bits(got.Norm.Val[i]) {
			t.Fatalf("%s: norm val[%d] = %v vs %v", ctx, i, want.Norm.Val[i], got.Norm.Val[i])
		}
	}
	if !intsEqual(want.ReadyRows, got.ReadyRows) || !intsEqual(want.ReadyTasks, got.ReadyTasks) {
		t.Fatalf("%s: ready sets differ: %v/%v vs %v/%v", ctx, want.ReadyRows, want.ReadyTasks, got.ReadyRows, got.ReadyTasks)
	}
	for i := range want.Proc.Data {
		if math.Float64bits(want.Proc.Data[i]) != math.Float64bits(got.Proc.Data[i]) {
			t.Fatalf("%s: proc[%d] = %v vs %v", ctx, i, want.Proc.Data[i], got.Proc.Data[i])
		}
	}
	if want.AllowIdle != got.AllowIdle {
		t.Fatalf("%s: AllowIdle %v vs %v", ctx, want.AllowIdle, got.AllowIdle)
	}
}

// encodeProbe wraps a policy and, at every decision, checks the incremental
// encoding against the EncodeFault oracle before delegating.
type encodeProbe struct {
	t           *testing.T
	inner       *Policy
	ctx         string
	n, rebuilds int
}

func (pp *encodeProbe) Reset(s *sim.State) { pp.inner.Reset(s) }

func (pp *encodeProbe) Decide(s *sim.State, r int) int {
	p := pp.inner
	oracle := EncodeFault(s, r, p.unionFeats(s.Graph), p.Agent.Cfg.Window, p.Agent.Cfg.Directed, p.Agent.Cfg.FaultFeatures)
	inc, rebuilt := p.inc.Encode(s, r)
	assertStatesEqual(pp.t, oracle, inc, fmt.Sprintf("%s decision %d", pp.ctx, pp.n))
	pp.n++
	if rebuilt {
		pp.rebuilds++
	}
	return p.Decide(s, r)
}

// TestIncrementalEncodeBitIdentical sweeps problem kinds, fault injection,
// duration noise, the directed operator, and fault features, asserting the
// incremental encoder reproduces EncodeFault bit for bit at every single
// decision of full episodes.
func TestIncrementalEncodeBitIdentical(t *testing.T) {
	kinds := []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR}
	for _, kind := range kinds {
		for _, faults := range []bool{false, true} {
			for _, directed := range []bool{false, true} {
				for _, ff := range []bool{false, true} {
					cfg := Config{Window: 2, Layers: 2, Hidden: 16, Seed: 3, Directed: directed, FaultFeatures: ff}
					agent := NewAgent(cfg)
					prob := NewProblem(kind, 6, 2, 2, 0.1)
					if faults {
						prob.Faults = sim.SpecForRate(1.5, 0)
					}
					pol := NewPolicy(agent)
					ctx := fmt.Sprintf("%v faults=%v directed=%v ff=%v", kind, faults, directed, ff)
					probe := &encodeProbe{t: t, inner: pol, ctx: ctx}
					if _, err := prob.Simulate(probe, rand.New(rand.NewSource(17))); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					if probe.n == 0 {
						t.Fatalf("%s: no decisions probed", ctx)
					}
					if probe.rebuilds == 0 || probe.rebuilds >= probe.n {
						t.Fatalf("%s: the window was recomputed at %d of %d decisions", ctx, probe.rebuilds, probe.n)
					}
				}
			}
		}
	}
}

// TestIncrementalResultIdentical runs whole episodes twice — incremental+memo
// against the pre-optimization oracle path (full rebuild, no memo) — and
// requires identical sim.Results, under faults and noise, greedy and
// sampling.
func TestIncrementalResultIdentical(t *testing.T) {
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU} {
		for _, faults := range []bool{false, true} {
			for _, greedy := range []bool{true, false} {
				cfg := Config{Window: 2, Layers: 2, Hidden: 16, Seed: 5}
				agent := NewAgent(cfg)
				prob := NewProblem(kind, 6, 2, 2, 0.15)
				if faults {
					prob.Faults = sim.SpecForRate(1.0, 0)
				}

				fast := NewPolicy(agent)
				slow := NewReferencePolicy(agent)
				if !greedy {
					fast.Greedy, fast.Rng = false, rand.New(rand.NewSource(7))
					slow.Greedy, slow.Rng = false, rand.New(rand.NewSource(7))
				}

				ra, err := prob.Simulate(fast, rand.New(rand.NewSource(23)))
				if err != nil {
					t.Fatal(err)
				}
				rb, err := prob.Simulate(slow, rand.New(rand.NewSource(23)))
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("%v faults=%v greedy=%v", kind, faults, greedy)
				if ra.Makespan != rb.Makespan || ra.Decisions != rb.Decisions || ra.IdleDecisions != rb.IdleDecisions {
					t.Fatalf("%s: results diverge: %+v vs %+v", ctx, ra, rb)
				}
				if len(ra.Trace) != len(rb.Trace) {
					t.Fatalf("%s: trace lengths differ", ctx)
				}
				for i := range ra.Trace {
					if ra.Trace[i] != rb.Trace[i] {
						t.Fatalf("%s: trace[%d] %+v vs %+v", ctx, i, ra.Trace[i], rb.Trace[i])
					}
				}
			}
		}
	}
}

// TestServingPolicyResultIdentical pins the end-to-end contract serve relies
// on: the serving policy (incremental + memo) schedules exactly like the
// reference policy.
func TestServingPolicyResultIdentical(t *testing.T) {
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 11})
	prob := NewProblem(taskgraph.QR, 6, 2, 2, 0.1)
	prob.Faults = sim.SpecForRate(1.0, 0)

	serving := NewPolicy(agent)
	oracle := NewReferencePolicy(agent)

	ra, err := prob.Simulate(serving, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := prob.Simulate(oracle, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Makespan != rb.Makespan || len(ra.Trace) != len(rb.Trace) {
		t.Fatalf("serving policy diverged from the reference: %+v vs %+v", ra, rb)
	}
	for i := range ra.Trace {
		if ra.Trace[i] != rb.Trace[i] {
			t.Fatalf("trace[%d]: %+v vs %+v", i, ra.Trace[i], rb.Trace[i])
		}
	}
}

// policyFunc adapts two closures to sim.Policy for probing tests.
type policyFunc struct {
	reset  func(*sim.State)
	decide func(*sim.State, int) int
}

func (p policyFunc) Reset(s *sim.State)             { p.reset(s) }
func (p policyFunc) Decide(s *sim.State, r int) int { return p.decide(s, r) }

// TestMemoScopedToStateVersion pins the memo's lifetime: it holds the forwards
// of one (NumDone, FaultEpoch, GraphEpoch) version and is emptied when the
// state moves on, so over a faulted 120-job stream it never outgrows what a
// single version can produce instead of gaining an entry per distinct state
// for as long as the stream runs. Within a version time stands still, so keys
// differ only in how many tasks have started (0..P), in the asking resource's
// type and speed (at most P of those) and in whether ∅ is allowed.
func TestMemoScopedToStateVersion(t *testing.T) {
	agent := NewAgent(Config{Window: 1, Layers: 1, Hidden: 8, Seed: 4})
	arr, err := stream.PoissonProcess{
		Rate: 8, Jobs: 120, Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU}, Sizes: []int{2, 3},
	}.Generate(rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.New(2, 2)
	pol := NewPolicy(agent)
	largest := 0
	probe := policyFunc{
		reset: pol.Reset,
		decide: func(s *sim.State, r int) int {
			task := pol.Decide(s, r)
			largest = max(largest, len(pol.memo))
			return task
		},
	}
	res, err := stream.Run(probe, stream.Config{
		Platform: plat,
		Arrivals: arr,
		Sigma:    0.1,
		Faults:   sim.GeneratePlan(9, plat.Size(), sim.SpecForRate(1.0, arr[len(arr)-1].At+3000)),
		Rng:      rand.New(rand.NewSource(10)),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := plat.Size()
	if bound := (p + 1) * p * 2; largest > bound {
		t.Fatalf("memo reached %d entries over %d decisions; one state version yields at most %d", largest, res.Decisions, bound)
	}
	t.Logf("largest memo: %d entries over %d decisions", largest, res.Decisions)
	if largest < 2 {
		t.Fatalf("memo never held more than %d entries over %d decisions: not exercised", largest, res.Decisions)
	}
}
