package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// stubbornPolicy idles until the engine forces it (MustAct), then plays FIFO.
type stubbornPolicy struct {
	forcedCalls int
}

func (p *stubbornPolicy) Reset(*State) {}
func (p *stubbornPolicy) Decide(s *State, _ int) int {
	if s.MustAct {
		p.forcedCalls++
		return s.Ready[0]
	}
	return NoTask
}

// TestForcedPhaseRescuesStubbornPolicy: a policy that answers ∅ unless MustAct
// starts every task in a forced round, and Result.ForcedPhases counts those
// rounds as the policy's forced calls do, in a single run and on a cluster.
func TestForcedPhaseRescuesStubbornPolicy(t *testing.T) {
	g, plat, tim := chol(4)
	pol := &stubbornPolicy{}
	res, err := Simulate(g, plat, tim, pol, Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.ForcedPhases != pol.forcedCalls {
		t.Fatalf("%d forced phases, %d forced calls", res.ForcedPhases, pol.forcedCalls)
	}
	c, err := NewCluster(plat, Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddJob(0, g, tim); err != nil {
		t.Fatal(err)
	}
	cpol := &stubbornPolicy{}
	if err := c.Drain(cpol); err != nil {
		t.Fatal(err)
	}
	if got := c.Result().ForcedPhases; got != cpol.forcedCalls || got != g.NumTasks() {
		t.Fatalf("cluster: %d forced phases, %d forced calls, want %d of each", got, cpol.forcedCalls, g.NumTasks())
	}
	if err := ValidateResult(g, plat.Size(), res); err != nil {
		t.Fatal(err)
	}
	if pol.forcedCalls == 0 {
		t.Fatal("forced rounds never triggered")
	}
	// Every task must have been started through a forced round (the policy
	// never starts anything voluntarily).
	if pol.forcedCalls != g.NumTasks() {
		t.Fatalf("forced calls %d, want %d", pol.forcedCalls, g.NumTasks())
	}
	// Outside forced rounds everything idles.
	if res.IdleDecisions == 0 {
		t.Fatal("expected idle decisions")
	}
}

// semiStubborn idles even when forced — a real deadlock.
type semiStubborn struct{}

func (semiStubborn) Reset(*State)           {}
func (semiStubborn) Decide(*State, int) int { return NoTask }

func TestForcedPhaseStillDeadlocksOnTotalRefusal(t *testing.T) {
	g, plat, tim := chol(3)
	_, err := Simulate(g, plat, tim, semiStubborn{}, Options{Rng: rand.New(rand.NewSource(1))})
	if err != ErrDeadlock {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

func TestMustActClearedAfterForcedPhase(t *testing.T) {
	g, plat, tim := chol(3)
	sawMustActOutsideForce := false
	pol := &probeMustAct{flag: &sawMustActOutsideForce}
	if _, err := Simulate(g, plat, tim, pol, Options{Rng: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if sawMustActOutsideForce {
		t.Fatal("MustAct leaked outside forced rounds")
	}
}

// probeMustAct behaves like FIFO (never refuses), so the engine must never
// enter a forced round and MustAct must never be observed set.
type probeMustAct struct {
	flag *bool
}

func (p *probeMustAct) Reset(*State) {}
func (p *probeMustAct) Decide(s *State, _ int) int {
	if s.MustAct {
		*p.flag = true
	}
	return s.Ready[0]
}

func TestInsertRemoveSortedProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		var xs []int
		seen := map[int]bool{}
		for _, v := range vals {
			if !seen[int(v)] {
				seen[int(v)] = true
				xs = insertSorted(xs, int(v))
			}
		}
		if !sort.IntsAreSorted(xs) {
			return false
		}
		// Remove half the elements and stay sorted.
		for i, v := range vals {
			if i%2 == 0 && seen[int(v)] {
				seen[int(v)] = false
				xs = removeSorted(xs, int(v))
				if !sort.IntsAreSorted(xs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveSortedMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("removing a missing element should panic")
		}
	}()
	removeSorted([]int{1, 3}, 2)
}

func TestSimulateMultiRootRandomDAG(t *testing.T) {
	// Random layered DAGs can have several roots; the engine must handle
	// multiple initially-ready tasks.
	rng := rand.New(rand.NewSource(9))
	cfg := taskgraph.RandomConfig{Layers: 4, WidthMin: 3, WidthMax: 6, EdgeProb: 0.4}
	g := taskgraph.NewLayeredRandom(rng, cfg)
	plat := platform.New(3, 1)
	res, err := Simulate(g, plat, platform.TimingFor(taskgraph.Random), fifoPolicy{},
		Options{Sigma: 0.2, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateResult(g, plat.Size(), res); err != nil {
		t.Fatal(err)
	}
}
