package serve

import (
	"math/rand"
	"sync"
	"testing"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestConcurrentInference drives ONE loaded agent from many goroutines at
// once, each scheduling a different problem with its own Policy. Run under
// `go test -race ./internal/serve/...` this enforces the contract documented
// on core.Agent.Forward: inference reads shared parameters but mutates no
// shared state. It is the registry's own contract: every lease of a model
// decides on the model's one loaded agent.
func TestConcurrentInference(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(taskgraph.Cholesky, 4, 1, 1)
	writeTestModel(t, dir, spec)
	r := NewRegistry(dir, 2, 2)
	lease, _, err := r.Acquire(taskgraph.Cholesky, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	shared := lease.Agent()

	problems := []struct {
		kind taskgraph.Kind
		T    int
		cpus int
		gpus int
	}{
		{taskgraph.Cholesky, 3, 1, 1},
		{taskgraph.Cholesky, 4, 2, 2},
		{taskgraph.Cholesky, 5, 1, 2},
		{taskgraph.LU, 3, 2, 1},
		{taskgraph.LU, 4, 1, 1},
		{taskgraph.QR, 3, 1, 1},
		{taskgraph.QR, 4, 2, 2},
		{taskgraph.Cholesky, 6, 4, 0},
		{taskgraph.LU, 5, 0, 4},
		{taskgraph.QR, 5, 2, 0},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(problems))
	for i, pc := range problems {
		wg.Add(1)
		go func(seed int64, kind taskgraph.Kind, T, cpus, gpus int) {
			defer wg.Done()
			prob := core.Problem{
				Graph:    taskgraph.NewByKind(kind, T),
				Platform: platform.New(cpus, gpus),
				Timing:   platform.TimingFor(kind),
				Sigma:    0.2,
			}
			res, err := prob.Simulate(core.NewPolicy(shared), rand.New(rand.NewSource(seed)))
			if err != nil {
				errs <- err
				return
			}
			errs <- sim.ValidateResult(prob.Graph, prob.Platform.Size(), res)
		}(int64(i), pc.kind, pc.T, pc.cpus, pc.gpus)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentRegistry hammers Acquire/Release across goroutines and
// models, interleaved with List and Stats, to catch registry-internal races
// (LRU mutation, idle-pool reuse, racing first loads). Last, concurrent first
// requests for one explicit DAG race to build its template: one is kept, and
// every request schedules on it alike.
func TestConcurrentRegistry(t *testing.T) {
	dir := t.TempDir()
	for _, T := range []int{2, 3, 4, 5} {
		writeTestModel(t, dir, testSpec(taskgraph.Cholesky, T, 1, 1))
	}
	r := NewRegistry(dir, 2, 2) // small cache forces concurrent evictions
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				T := 2 + (g+i)%4
				lease, _, err := r.Acquire(taskgraph.Cholesky, T, 1, 1)
				if err != nil {
					errs <- err
					return
				}
				prob := core.Problem{
					Graph:    taskgraph.NewByKind(taskgraph.Cholesky, T),
					Platform: platform.New(1, 1),
					Timing:   platform.TimingFor(taskgraph.Cholesky),
				}
				if _, err := prob.Simulate(core.NewPolicy(lease.Agent()), rand.New(rand.NewSource(int64(i)))); err != nil {
					errs <- err
				}
				lease.Release()
				if _, err := r.List(); err != nil {
					errs <- err
				}
				r.Stats()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	r = NewRegistry(dir, 2, 8)
	const racers = 8
	tpls, makespans := make([]*template, racers), make([]float64, racers)
	for g := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lease, _, err := r.Acquire(taskgraph.Cholesky, 3, 1, 1)
			if err != nil {
				t.Error(err)
				return
			}
			defer lease.Release()
			tpls[g], err = lease.template(&ScheduleRequest{Kind: "cholesky", TrainT: 3, CPUs: 1, GPUs: 1, DAG: diamond()})
			if err != nil {
				t.Error(err)
				return
			}
			res, err := tpls[g].prob.SimulateOn(lease.Runner(), lease.Policy(), lease.Rand(1))
			if err != nil {
				t.Error(err)
				return
			}
			makespans[g] = res.Makespan
		}()
	}
	wg.Wait()
	m := r.byName[cacheKey(taskgraph.Cholesky, 3, 1, 1)].Value.(*model)
	if len(m.dags) != 1 {
		t.Fatalf("%d explicit DAGs kept after racing first requests for one", len(m.dags))
	}
	kept := m.dags[m.dagOrder[0]]
	for g := range racers {
		if tpls[g] != kept || makespans[g] != makespans[0] {
			t.Errorf("racer %d: kept template %v, makespan %v against %v", g, tpls[g] == kept, makespans[g], makespans[0])
		}
	}
}

// TestConcurrentLeasedPolicies hands resident policies, with their simulator
// memory and generator, from goroutine to goroutine and from model to model
// through the registry's idle pool — more leases in flight than idle slots,
// and a cache too small for the models, so models are evicted while their
// leases are out — while all of a
// model's leases roll out on the one template the model holds for the tile
// count, and requires every rollout to decide as a fresh policy on a fresh
// graph does. Under -race it
// also proves the hand-off is ordered by the registry lock and that nothing
// writes to a shared template.
func TestConcurrentLeasedPolicies(t *testing.T) {
	dir := t.TempDir()
	tiles := []int{2, 3, 4}
	want := make(map[[2]int]float64) // (T, seed) -> makespan of a fresh policy
	problem := func(T int) core.Problem {
		return core.Problem{
			Graph:    taskgraph.NewByKind(taskgraph.Cholesky, T),
			Platform: platform.New(1, 1),
			Timing:   platform.TimingFor(taskgraph.Cholesky),
			Sigma:    0.1,
		}
	}
	const seeds = 4
	for _, T := range tiles {
		spec := testSpec(taskgraph.Cholesky, T, 1, 1)
		writeTestModel(t, dir, spec)
		agent := core.NewAgent(spec.AgentConfig())
		if _, err := agent.LoadCheckpoint(spec.ModelPath(dir)); err != nil {
			t.Fatal(err)
		}
		for seed := 0; seed < seeds; seed++ {
			res, err := problem(T).Simulate(core.NewPolicy(agent), rand.New(rand.NewSource(int64(seed))))
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{T, seed}] = res.Makespan
		}
	}

	r := NewRegistry(dir, 2, 2)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				T, seed := tiles[(g+i)%len(tiles)], (g*7+i)%seeds
				lease, _, err := r.Acquire(taskgraph.Cholesky, T, 1, 1)
				if err != nil {
					t.Error(err)
					return
				}
				tpl, err := lease.template(&ScheduleRequest{Kind: "cholesky", T: T, CPUs: 1, GPUs: 1})
				if err != nil {
					t.Error(err)
					return
				}
				prob := tpl.prob
				prob.Sigma = 0.1
				res, err := prob.SimulateOn(lease.Runner(), lease.Policy(), lease.Rand(int64(seed)))
				makespan := res.Makespan // the result is the runner's, and the runner goes back with the lease
				lease.Release()
				if err != nil {
					t.Error(err)
					return
				}
				if makespan != want[[2]int{T, seed}] {
					t.Errorf("T=%d seed %d on a leased policy: makespan %v, fresh policy %v", T, seed, makespan, want[[2]int{T, seed}])
				}
			}
		}(g)
	}
	wg.Wait()
}
