package sched

import (
	"math"
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

func TestHEFTCommReducesToHEFTWithNilModel(t *testing.T) {
	g, plat, tt := setup(taskgraph.Cholesky, 6, 2, 2)
	a := HEFT(g, plat, tt)
	b := HEFTComm(g, plat, tt, nil)
	if a.Makespan != b.Makespan {
		t.Fatalf("nil comm model changed HEFT: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("assignments differ under nil comm")
		}
	}
}

func TestUpwardRanksCommAddsEdgeTerm(t *testing.T) {
	g := taskgraph.NewCholesky(2) // chain-ish DAG with 4 tasks
	plat := platform.New(2, 0)
	tt := platform.TimingFor(taskgraph.Cholesky)
	comm := &platform.CommModel{LatencyMs: 10, TileBytes: 0, BandwidthBytesPerMs: 1}
	base := UpwardRanks(g, plat, tt)
	withComm := UpwardRanksComm(g, plat, tt, comm)
	// Ranks of non-sink tasks must grow by at least one mean edge cost.
	cbar := comm.MeanCost(plat.Size())
	root := g.Roots()[0]
	if withComm[root] < base[root]+cbar-1e-9 {
		t.Fatalf("comm rank %v should exceed %v", withComm[root], base[root]+cbar)
	}
	sink := g.NumTasks() - 1 // POTRF(T-1), the only sink
	if withComm[sink] != base[sink] {
		t.Fatal("sink rank must be unchanged (no outgoing edges)")
	}
}

func TestHEFTCommAvoidsScatterWhenCommDominates(t *testing.T) {
	// With transfers far more expensive than any kernel, HEFT should place a
	// dependent chain on a single resource.
	g := taskgraph.NewCholesky(4)
	plat := platform.New(2, 0)
	tt := platform.TimingFor(taskgraph.Cholesky)
	comm := &platform.CommModel{LatencyMs: 10000, TileBytes: 0, BandwidthBytesPerMs: 1}
	h := HEFTComm(g, plat, tt, comm)
	first := h.Assignment[0]
	for tsk, r := range h.Assignment {
		if r != first {
			t.Fatalf("task %d scattered to resource %d despite dominant comm", tsk, r)
		}
	}
}

func TestHEFTCommProjectionMatchesSimulatedExecution(t *testing.T) {
	g, plat, tt := setup(taskgraph.Cholesky, 5, 2, 2)
	comm := platform.DefaultCommModel()
	h := HEFTComm(g, plat, tt, comm)
	res, err := sim.Simulate(g, plat, tt, NewStaticPolicy(h), sim.Options{
		Rng: rand.New(rand.NewSource(1)), Comm: comm,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The simulator's stall model can only delay relative to HEFT's
	// projection (which plans transfers into the gaps); executed makespan
	// must be >= projected and within a few transfer costs of it.
	if res.Makespan < h.Makespan-1e-6 {
		t.Fatalf("executed %v beats projection %v", res.Makespan, h.Makespan)
	}
	slack := 20 * comm.Cost(0, 1)
	if res.Makespan > h.Makespan+slack {
		t.Fatalf("executed %v too far above projection %v", res.Makespan, h.Makespan)
	}
}

func TestMCTWithCommStillValid(t *testing.T) {
	g, plat, tt := setup(taskgraph.LU, 4, 2, 2)
	res, err := sim.Simulate(g, plat, tt, MCTPolicy{}, sim.Options{
		Sigma: 0.2, Comm: platform.DefaultCommModel(), Rng: rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ValidateResult(g, plat.Size(), res); err != nil {
		t.Fatal(err)
	}
}

func TestMCTCommPrefersDataLocalityWhenCommDominates(t *testing.T) {
	// Chain A→B on 2 CPUs with huge transfer cost: MCT must keep B where A
	// ran.
	g := taskgraph.NewCustom(taskgraph.Cholesky, [4]string{"POTRF", "TRSM", "SYRK", "GEMM"})
	a := g.AddTask(taskgraph.KPOTRF, "A")
	b := g.AddTask(taskgraph.KPOTRF, "B")
	g.AddEdge(a, b)
	plat := platform.New(2, 0)
	tt := platform.TimingFor(taskgraph.Cholesky)
	comm := &platform.CommModel{LatencyMs: 1000, TileBytes: 0, BandwidthBytesPerMs: 1}
	res, err := sim.Simulate(g, plat, tt, MCTPolicy{}, sim.Options{
		Comm: comm, Rng: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var resA, resB int
	for _, p := range res.Trace {
		if p.Task == a {
			resA = p.Resource
		}
		if p.Task == b {
			resB = p.Resource
		}
	}
	if resA != resB {
		t.Fatalf("MCT ignored data locality: A on %d, B on %d", resA, resB)
	}
	if math.Abs(res.Makespan-32) > 1e-9 {
		t.Fatalf("makespan %v, want 32 (two local POTRFs)", res.Makespan)
	}
}
