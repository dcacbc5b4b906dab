package sim

import (
	"math"
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

func TestAnalyzeBusyIdleAndUtilisation(t *testing.T) {
	g, plat, tim := chol(6)
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	st := Analyze(g, plat, res)
	if st.Makespan != res.Makespan {
		t.Fatal("makespan mismatch")
	}
	var busySum float64
	for r := range st.BusyTime {
		if st.BusyTime[r] < 0 || st.BusyTime[r] > res.Makespan+1e-9 {
			t.Fatalf("busy[%d] = %v out of range", r, st.BusyTime[r])
		}
		if math.Abs(st.BusyTime[r]+st.IdleTime[r]-res.Makespan) > 1e-9 {
			t.Fatalf("busy+idle != makespan on resource %d", r)
		}
		busySum += st.BusyTime[r]
	}
	// Busy time must equal the sum of all task durations.
	var durSum float64
	for _, p := range res.Trace {
		durSum += p.End - p.Start
	}
	if math.Abs(busySum-durSum) > 1e-9 {
		t.Fatal("total busy time inconsistent")
	}
	if st.MeanUtilisation <= 0 || st.MeanUtilisation > 1 {
		t.Fatalf("utilisation %v", st.MeanUtilisation)
	}
}

func TestAnalyzeKernelPlacementCounts(t *testing.T) {
	g, plat, tim := chol(5)
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	st := Analyze(g, plat, res)
	var counts [taskgraph.NumKernels]int
	for _, task := range g.Tasks {
		counts[task.Kernel]++
	}
	for k := 0; k < taskgraph.NumKernels; k++ {
		total := 0
		for rt := platform.ResourceType(0); rt < platform.NumResourceTypes; rt++ {
			total += st.KernelPlacement[k][rt]
		}
		if total != counts[k] {
			t.Fatalf("kernel %d placement total %d, want %d", k, total, counts[k])
		}
	}
	// GPUShare is a valid fraction.
	for k := 0; k < taskgraph.NumKernels; k++ {
		if s := st.GPUShare(taskgraph.Kernel(k)); s < 0 || s > 1 {
			t.Fatalf("GPUShare(%d) = %v", k, s)
		}
	}
}

func TestAnalyzeCriticalChain(t *testing.T) {
	g, plat, tim := chol(6)
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: 0.2, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	st := Analyze(g, plat, res)
	if len(st.CriticalChain) == 0 {
		t.Fatal("empty critical chain")
	}
	byTask := make([]Placement, g.NumTasks())
	for _, p := range res.Trace {
		byTask[p.Task] = p
	}
	// The chain ends at the last-finishing task.
	lastInChain := st.CriticalChain[len(st.CriticalChain)-1]
	if math.Abs(byTask[lastInChain].End-res.Makespan) > 1e-9 {
		t.Fatal("chain does not end at the makespan")
	}
	// Every link is blocking: next.Start == prev.End.
	for i := 1; i < len(st.CriticalChain); i++ {
		prev, next := byTask[st.CriticalChain[i-1]], byTask[st.CriticalChain[i]]
		if math.Abs(next.Start-prev.End) > 1e-9 {
			t.Fatalf("chain link %d not blocking: %v -> %v", i, prev, next)
		}
	}
}

func TestAnalyzeSingleResourceFullyBusy(t *testing.T) {
	g := taskgraph.NewCholesky(3)
	plat := platform.New(1, 0)
	tim := platform.TimingFor(taskgraph.Cholesky)
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	st := Analyze(g, plat, res)
	// One resource, no dependencies can idle it with FIFO: utilisation 1.
	if math.Abs(st.MeanUtilisation-1) > 1e-9 {
		t.Fatalf("single-resource utilisation %v", st.MeanUtilisation)
	}
	// Critical chain covers every task (pure serial execution).
	if len(st.CriticalChain) != g.NumTasks() {
		t.Fatalf("serial chain has %d of %d tasks", len(st.CriticalChain), g.NumTasks())
	}
}
