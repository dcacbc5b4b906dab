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
	oracle := EncodeFault(s, r, p.unionFeats(s.Graph), p.Agent.Cfg.Window, false, p.Agent.Cfg.FaultFeatures)
	inc, rebuilt := p.inc.Encode(s, r)
	assertStatesEqual(pp.t, oracle, inc, fmt.Sprintf("%s decision %d", pp.ctx, pp.n))
	pp.n++
	if rebuilt {
		pp.rebuilds++
	}
	return p.Decide(s, r)
}

// TestIncrementalEncodeBitIdentical sweeps problem kinds, fault injection,
// duration noise, and fault features, asserting the
// incremental encoder reproduces EncodeFault bit for bit at every single
// decision of full episodes.
func TestIncrementalEncodeBitIdentical(t *testing.T) {
	kinds := []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR}
	for _, kind := range kinds {
		for _, faults := range []bool{false, true} {
			for _, ff := range []bool{false, true} {
				cfg := Config{Window: 2, Layers: 2, Hidden: 16, Seed: 3, FaultFeatures: ff}
				agent := NewAgent(cfg)
				prob := NewProblem(kind, 6, 2, 2, 0.1)
				if faults {
					prob.Faults = sim.SpecForRate(1.5, 0)
				}
				pol := NewPolicy(agent)
				ctx := fmt.Sprintf("%v faults=%v ff=%v", kind, faults, ff)
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

// TestIncrementalUnsortedAdjacency holds the encoder to EncodeFault at every
// decision on a graph whose Succ and Pred rows are out of order: an explicit
// DAG built with NewFrozen from a shuffled edge list with duplicates keeps its
// edges in request order. The encoder reads those rows as they are, so its CSR
// rows come out sorted only because it sorts each one.
func TestIncrementalUnsortedAdjacency(t *testing.T) {
	gen := taskgraph.NewByKind(taskgraph.LU, 5)
	kernels := make([]taskgraph.Kernel, gen.NumTasks())
	names := make([]string, gen.NumTasks())
	for i, task := range gen.Tasks {
		kernels[i], names[i] = task.Kernel, task.Name
	}
	var edges [][2]int
	for from, row := range gen.Succ {
		for _, to := range row {
			edges = append(edges, [2]int{from, to})
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < len(edges)/4; i++ {
		edges = append(edges, edges[rng.Intn(len(edges))])
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g, err := taskgraph.NewFrozen(gen.Kind, gen.KernelNames, kernels, names, edges)
	if err != nil {
		t.Fatal(err)
	}
	unsorted := func(rows [][]int) int {
		n := 0
		for _, row := range rows {
			for k := 1; k < len(row); k++ {
				if row[k] < row[k-1] {
					n++
					break
				}
			}
		}
		return n
	}
	us, up := unsorted(g.Succ), unsorted(g.Pred)
	if us == 0 || up == 0 {
		t.Fatalf("the shuffled build left %d Succ and %d Pred rows unsorted; the test needs both", us, up)
	}
	prob := Problem{Graph: g, Platform: platform.New(2, 2), Timing: platform.TimingFor(gen.Kind), Sigma: 0.1}
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 3})
	ctx := fmt.Sprintf("%d of %d Succ and %d Pred rows unsorted", us, g.NumTasks(), up)
	probe := &encodeProbe{t: t, inner: NewPolicy(agent), ctx: ctx}
	if _, err := prob.Simulate(probe, rand.New(rand.NewSource(17))); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if probe.n == 0 || probe.rebuilds == 0 {
		t.Fatalf("%s: %d decisions probed, %d window rebuilds", ctx, probe.n, probe.rebuilds)
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
