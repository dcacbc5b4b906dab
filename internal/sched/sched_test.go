package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

func setup(kind taskgraph.Kind, T, nCPU, nGPU int) (*taskgraph.Graph, platform.Platform, platform.Timing) {
	return taskgraph.NewByKind(kind, T), platform.New(nCPU, nGPU), platform.TimingFor(kind)
}

func TestUpwardRanksMonotoneAlongEdges(t *testing.T) {
	g, plat, tt := setup(taskgraph.Cholesky, 6, 2, 2)
	rank := UpwardRanks(g, plat, tt)
	for i, succ := range g.Succ {
		for _, j := range succ {
			if rank[i] <= rank[j] {
				t.Fatalf("rank not decreasing along edge (%d,%d): %v <= %v", i, j, rank[i], rank[j])
			}
		}
	}
	// Sink rank equals its own average duration.
	sink := g.NumTasks() - 1 // POTRF(T-1), the only sink
	k := g.Tasks[sink].Kernel
	want := (tt.Expected[k][platform.CPU] + tt.Expected[k][platform.GPU]) / 2 // 2 CPU + 2 GPU → same as type mean
	if math.Abs(rank[sink]-want) > 1e-9 {
		t.Fatalf("sink rank = %v, want %v", rank[sink], want)
	}
}

func TestUpwardRanksWeightedByPlatform(t *testing.T) {
	g := taskgraph.NewCholesky(2)
	tt := platform.TimingFor(taskgraph.Cholesky)
	cpuOnly := UpwardRanks(g, platform.New(4, 0), tt)
	gpuOnly := UpwardRanks(g, platform.New(0, 4), tt)
	sink := g.NumTasks() - 1 // POTRF(1), the only sink
	if cpuOnly[sink] != 16 || gpuOnly[sink] != 8 {
		t.Fatalf("platform weighting wrong: cpu %v gpu %v", cpuOnly[sink], gpuOnly[sink])
	}
}

func TestHEFTProjectionIsValidSchedule(t *testing.T) {
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		g, plat, tt := setup(kind, 6, 2, 2)
		h := HEFT(g, plat, tt)
		res := sim.Result{Makespan: h.Makespan}
		for t2 := 0; t2 < g.NumTasks(); t2++ {
			res.Trace = append(res.Trace, sim.Placement{
				Task: t2, Resource: h.Assignment[t2], Start: h.ProjStart[t2], End: h.ProjEnd[t2],
			})
		}
		if err := sim.ValidateResult(g, plat.Size(), res); err != nil {
			t.Fatalf("%v: HEFT projection infeasible: %v", kind, err)
		}
	}
}

func TestHEFTExecutesExactlyAtSigmaZero(t *testing.T) {
	// Replaying the HEFT schedule with exact durations must reproduce the
	// projected makespan.
	g, plat, tt := setup(taskgraph.Cholesky, 8, 2, 2)
	h := HEFT(g, plat, tt)
	res, err := sim.Simulate(g, plat, tt, NewStaticPolicy(h), sim.Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-h.Makespan) > 1e-6 {
		t.Fatalf("executed %.3f vs projected %.3f", res.Makespan, h.Makespan)
	}
}

func TestHEFTBeatsFIFOOnHeterogeneousPlatform(t *testing.T) {
	g, plat, tt := setup(taskgraph.Cholesky, 8, 2, 2)
	h := HEFT(g, plat, tt)
	fifo, err := sim.Simulate(g, plat, tt, FIFOPolicy{}, sim.Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if h.Makespan >= fifo.Makespan {
		t.Fatalf("HEFT %.1f should beat FIFO %.1f", h.Makespan, fifo.Makespan)
	}
}

func TestHEFTPrefersGPUForUpdates(t *testing.T) {
	// On 1 CPU + 1 GPU, GEMM tasks (29x faster on GPU) should overwhelmingly
	// land on the GPU.
	g, plat, tt := setup(taskgraph.Cholesky, 8, 1, 1)
	h := HEFT(g, plat, tt)
	gpu := 1 // resource 1 is the GPU (CPUs first)
	var gemmTotal, gemmOnGPU int
	for i, task := range g.Tasks {
		if task.Kernel == taskgraph.KGEMM {
			gemmTotal++
			if h.Assignment[i] == gpu {
				gemmOnGPU++
			}
		}
	}
	if gemmOnGPU*10 < gemmTotal*8 {
		t.Fatalf("only %d/%d GEMMs on GPU", gemmOnGPU, gemmTotal)
	}
}

func TestHEFTStaticReplayValidUnderNoise(t *testing.T) {
	f := func(seed int64, sig8 uint8) bool {
		g, plat, tt := setup(taskgraph.LU, 5, 2, 2)
		h := HEFT(g, plat, tt)
		sigma := float64(sig8%6) * 0.1
		res, err := sim.Simulate(g, plat, tt, NewStaticPolicy(h), sim.Options{
			Sigma: sigma, Rng: rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			return false
		}
		if sim.ValidateResult(g, plat.Size(), res) != nil {
			return false
		}
		// Replay must respect the static assignment.
		for _, p := range res.Trace {
			if p.Resource != h.Assignment[p.Task] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHEFTDegradesWithNoise(t *testing.T) {
	// Mean HEFT makespan under strong noise should exceed the noise-free one:
	// the static order cannot adapt.
	g, plat, tt := setup(taskgraph.Cholesky, 8, 2, 2)
	h := HEFT(g, plat, tt)
	var sum float64
	const runs = 30
	for i := 0; i < runs; i++ {
		res, err := sim.Simulate(g, plat, tt, NewStaticPolicy(h), sim.Options{
			Sigma: 0.5, Rng: rand.New(rand.NewSource(int64(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Makespan
	}
	if mean := sum / runs; mean <= h.Makespan {
		t.Fatalf("noisy mean %.1f should exceed noise-free %.1f", mean, h.Makespan)
	}
}

func TestMCTValidAndCompletes(t *testing.T) {
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		g, plat, tt := setup(kind, 6, 2, 2)
		res, err := sim.Simulate(g, plat, tt, MCTPolicy{}, sim.Options{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := sim.ValidateResult(g, plat.Size(), res); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestMCTPlacesLoneTaskOnFastestResource(t *testing.T) {
	// A single POTRF on 1 CPU + 1 GPU: MCT must pick the GPU (8 < 16 ms).
	g := taskgraph.NewCholesky(1)
	plat := platform.New(1, 1)
	tt := platform.TimingFor(taskgraph.Cholesky)
	res, err := sim.Simulate(g, plat, tt, MCTPolicy{}, sim.Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace[0].Resource != 1 {
		t.Fatalf("MCT placed POTRF on resource %d, want GPU (1)", res.Trace[0].Resource)
	}
	if res.Makespan != 8 {
		t.Fatalf("makespan %v, want 8", res.Makespan)
	}
}

func TestMCTWaitsForBusyGPUWhenWorthIt(t *testing.T) {
	// MCT may idle a free CPU if a GEMM completes sooner by waiting for the
	// GPU: verify idle decisions occur on a GPU-heavy DAG with 1 CPU + 1 GPU.
	g, plat, tt := setup(taskgraph.Cholesky, 8, 1, 1)
	res, err := sim.Simulate(g, plat, tt, MCTPolicy{}, sim.Options{Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleDecisions == 0 {
		t.Fatal("expected MCT to idle the CPU sometimes")
	}
}

func TestMCTRobustToNoise(t *testing.T) {
	// MCT's relative degradation under noise must stay mild (it adapts),
	// unlike a static schedule.
	g, plat, tt := setup(taskgraph.Cholesky, 8, 2, 2)
	base, err := sim.Simulate(g, plat, tt, MCTPolicy{}, sim.Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const runs = 20
	for i := 0; i < runs; i++ {
		res, err := sim.Simulate(g, plat, tt, MCTPolicy{}, sim.Options{Sigma: 0.4, Rng: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Makespan
	}
	if mean := sum / runs; mean > 1.6*base.Makespan {
		t.Fatalf("MCT degraded too much under noise: %.1f vs %.1f", mean, base.Makespan)
	}
}

func TestEarliestGapInsertion(t *testing.T) {
	// A timeline lists tasks; their projected intervals are the slots.
	p := &HEFTSchedule{ProjStart: []float64{10, 30}, ProjEnd: []float64{20, 40}}
	tl := []int{0, 1}
	if got := p.earliestGap(tl, 0, 5); got != 0 {
		t.Fatalf("gap before first slot: %v", got)
	}
	if got := p.earliestGap(tl, 0, 15); got != 40 {
		t.Fatalf("too big for gaps: %v", got)
	}
	if got := p.earliestGap(tl, 22, 8); got != 22 {
		t.Fatalf("fits between: %v", got)
	}
	if got := p.earliestGap(tl, 15, 5); got != 20 {
		t.Fatalf("ready inside slot: %v", got)
	}
	if got := p.earliestGap(nil, 7, 3); got != 7 {
		t.Fatalf("empty timeline: %v", got)
	}
}

func TestHEFTOnSingleResource(t *testing.T) {
	g, plat, tt := setup(taskgraph.Cholesky, 4, 1, 0)
	h := HEFT(g, plat, tt)
	// Single resource: makespan equals the serial sum of CPU durations.
	var serial float64
	for _, task := range g.Tasks {
		serial += tt.ExpectedDuration(task.Kernel, platform.CPU)
	}
	if math.Abs(h.Makespan-serial) > 1e-9 {
		t.Fatalf("single-CPU HEFT makespan %.3f, want serial %.3f", h.Makespan, serial)
	}
}
