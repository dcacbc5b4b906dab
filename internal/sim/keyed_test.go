package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// readZ reads back the duration draw of a placement run at speed 1:
// d = E + z·σE, so z = (d − E)/(σE). ok is false for a duration clamped at 0,
// which keeps only the sign of z.
func readZ(s *sim.State, p sim.Placement, sigma float64) (z float64, ok bool) {
	d := p.End - p.Start
	if d == 0 {
		return 0, false
	}
	e := s.TaskTiming(p.Task).ExpectedDuration(s.Graph.Tasks[p.Task].Kernel, s.Platform.Resources[p.Resource].Type)
	return (d - e) / (sigma * e), true
}

// sameZ compares a read-back draw with the keyed one. A start time plus a
// duration, less the start time, rounds; a different draw differs by O(1).
func sameZ(got, want float64) bool { return math.Abs(got-want) <= 1e-9*max(1, math.Abs(want)) }

// attemptsOf counts each task's killed attempts: its completed attempt is the
// next one.
func attemptsOf(kills []sim.Kill) map[int]int {
	n := map[int]int{}
	for _, k := range kills {
		n[k.Task]++
	}
	return n
}

// observer is a policy that keeps the State its run hands it, so that a test
// can read the run's timing tables afterwards.
type observer struct {
	sim.Policy
	s *sim.State
}

func (o *observer) Reset(s *sim.State) { o.s = s; o.Policy.Reset(s) }

// TestKeyedDrawsPairedAcrossSchedulers runs HEFT, MCT and READYS on one seed
// at σ > 0 and reads back every task's duration draw: all three see the same
// z for every (task, attempt) — here attempt 0 of every task — and it is the
// run key's draw, whatever order each scheduler started the tasks in. The
// committed Cholesky T=4 agent decides for every family: what matters here is
// only that READYS starts the tasks in an order of its own.
func TestKeyedDrawsPairedAcrossSchedulers(t *testing.T) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	if _, err := agent.LoadCheckpoint("../../models/readys_cholesky_T4_2c2g_w2_l2_h32.json"); err != nil {
		t.Fatal(err)
	}
	plat := platform.New(2, 2)
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		g := taskgraph.NewFrozenByKind(kind, 5)
		tim := platform.TimingFor(kind)
		for _, sigma := range []float64{0.2, 0.5} {
			for seed := int64(1); seed <= 4; seed++ {
				key := sim.RunKey(seed)
				for _, sc := range []struct {
					name string
					pol  sim.Policy
				}{
					{"HEFT", sched.NewStaticPolicy(sched.HEFT(g, plat, tim))},
					{"MCT", sched.MCTPolicy{}},
					{"READYS", core.NewPolicy(agent)},
				} {
					o := &observer{Policy: sc.pol}
					res, err := sim.Simulate(g, plat, tim, o, sim.Options{Sigma: sigma, Rng: rand.New(rand.NewSource(seed))})
					if err != nil || len(res.Trace) != g.NumTasks() {
						t.Fatalf("%s %v σ=%g seed %d: %d of %d tasks placed, error %v", sc.name, kind, sigma, seed, len(res.Trace), g.NumTasks(), err)
					}
					for _, p := range res.Trace {
						z, ok := readZ(o.s, p, sigma)
						if want := sim.KeyedZ(key, p.Task, 0); ok && !sameZ(z, want) {
							t.Fatalf("%s %v σ=%g seed %d: task %d drew z = %v, the run key's draw is %v", sc.name, kind, sigma, seed, p.Task, z, want)
						}
					}
				}
			}
		}
	}
}

// TestKeyedDrawRetryGetsNewZ: under outages and deaths (no degrade, so every
// attempt runs at speed 1), a task's completed attempt draws the z of its
// attempt number — the kills before it — and a killed task's retry draws
// another z than its first attempt.
func TestKeyedDrawRetryGetsNewZ(t *testing.T) {
	plat := platform.New(2, 2)
	tim := platform.TimingFor(taskgraph.Cholesky)
	g := taskgraph.NewFrozenByKind(taskgraph.Cholesky, 6)
	const sigma = 0.3
	retried := 0
	for seed := int64(1); seed <= 20; seed++ {
		var plan sim.FaultPlan
		for _, e := range sim.GeneratePlan(seed, plat.Size(), sim.SpecForRate(2, 400)).Events {
			if e.Kind != sim.FaultDegrade {
				plan.Events = append(plan.Events, e)
			}
		}
		o := &observer{Policy: sched.MCTPolicy{}}
		res, err := sim.Simulate(g, plat, tim, o, sim.Options{Sigma: sigma, Rng: rand.New(rand.NewSource(seed)), Faults: &plan})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		key, attempts := sim.RunKey(seed), attemptsOf(res.Kills)
		for _, p := range res.Trace {
			a := attempts[p.Task]
			z, ok := readZ(o.s, p, sigma)
			if want := sim.KeyedZ(key, p.Task, a); ok && !sameZ(z, want) {
				t.Fatalf("seed %d: task %d's attempt %d drew z = %v, want %v", seed, p.Task, a, z, want)
			}
			if a > 0 {
				retried++
				if first := sim.KeyedZ(key, p.Task, 0); sameZ(z, first) {
					t.Fatalf("seed %d: task %d's retry drew its first attempt's z %v", seed, p.Task, first)
				}
			}
		}
	}
	if retried == 0 {
		t.Fatal("no run killed a task, so no retry was checked")
	}
}

// TestKeyedDrawsInStreamByUnionIndex: in a stream, a task's z depends only on
// the cluster's key, its union index and its attempt — not on when its job
// arrived, which policy ran it, or what ran before it. Two policies and two
// arrival spacings, under outages, all read back the keyed draws.
func TestKeyedDrawsInStreamByUnionIndex(t *testing.T) {
	plat := platform.New(2, 2)
	shapes := []*taskgraph.Graph{
		taskgraph.NewFrozenByKind(taskgraph.Cholesky, 3),
		taskgraph.NewFrozenByKind(taskgraph.LU, 3),
		taskgraph.NewFrozenByKind(taskgraph.QR, 2),
	}
	const sigma, seed = 0.3, 5
	key := sim.RunKey(seed)
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{Kind: sim.FaultOutage, Resource: 0, At: 3, Duration: 20},
		{Kind: sim.FaultOutage, Resource: 3, At: 40, Duration: 5},
		{Kind: sim.FaultDeath, Resource: 2, At: 90},
	}}
	for _, pol := range []sim.Policy{sched.MCTPolicy{}, sched.FIFOPolicy{}} {
		for _, gap := range []float64{2, 25} {
			c, err := sim.NewCluster(plat, sim.Options{Sigma: sigma, Rng: rand.New(rand.NewSource(seed)), Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 12; j++ {
				if err := c.RunUntil(pol, float64(j)*gap); err != nil {
					t.Fatal(err)
				}
				g := shapes[j%len(shapes)]
				if _, err := c.AddJob(j, g, platform.TimingFor(g.Kind)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Drain(pol); err != nil {
				t.Fatal(err)
			}
			res := c.Result()
			attempts := attemptsOf(res.Kills)
			if len(attempts) == 0 {
				t.Fatalf("%T, gap %g: the plan killed nothing", pol, gap)
			}
			for _, p := range res.Trace {
				z, ok := readZ(c.State(), p, sigma)
				if want := sim.KeyedZ(key, p.Task, attempts[p.Task]); ok && !sameZ(z, want) {
					t.Fatalf("%T, gap %g: union task %d (attempt %d) drew z = %v, want %v", pol, gap, p.Task, attempts[p.Task], z, want)
				}
			}
		}
	}
}

// TestKeyedDrawAllocFree: the keyed draws allocate nothing, so an MCT episode
// on a reused Runner allocates no more at σ > 0, where every start draws a z,
// than at σ = 0, where none does.
func TestKeyedDrawAllocFree(t *testing.T) {
	g := taskgraph.NewFrozenByKind(taskgraph.Cholesky, 6)
	plat, tim := platform.New(2, 2), platform.TimingFor(taskgraph.Cholesky)
	var rn sim.Runner
	rng := rand.New(rand.NewSource(1))
	allocs := func(sigma float64) float64 {
		return testing.AllocsPerRun(20, func() {
			rng.Seed(1)
			if _, err := rn.Simulate(g, plat, tim, sched.MCTPolicy{}, sim.Options{Sigma: sigma, Rng: rng}); err != nil {
				t.Fatal(err)
			}
		})
	}
	quiet, noisy := allocs(0), allocs(0.3)
	t.Logf("allocations per episode: %v at σ = 0, %v at σ = 0.3", quiet, noisy)
	if noisy > quiet {
		t.Fatalf("an MCT episode allocates %v times at σ = 0.3, %v at σ = 0", noisy, quiet)
	}
}

// TestKeyedDrawIsStandardNormal: the draws are N(0, 1) and uncorrelated
// between neighbouring tasks, between a task's attempts and between
// neighbouring keys.
func TestKeyedDrawIsStandardNormal(t *testing.T) {
	const n = 100000
	var sum, sumSq, sumQuad, task, attempt, keys float64
	for i := 0; i < n; i++ {
		z := sim.KeyedZ(7, i, 0)
		sum += z
		sumSq += z * z
		sumQuad += z * z * z * z
		task += z * sim.KeyedZ(7, i+1, 0)
		attempt += z * sim.KeyedZ(7, i, 1)
		keys += z * sim.KeyedZ(8, i, 0)
	}
	mean, variance := sum/n, sumSq/n-(sum/n)*(sum/n)
	kurtosis := sumQuad / n / (variance * variance)
	// At n = 10⁵ a mean and a correlation have a standard error of 0.003.
	if math.Abs(mean) > 0.015 || math.Abs(variance-1) > 0.03 || math.Abs(kurtosis-3) > 0.1 {
		t.Fatalf("mean %v, variance %v, kurtosis %v: not a standard normal", mean, variance, kurtosis)
	}
	for name, c := range map[string]float64{"adjacent tasks": task / n, "attempts 0 and 1": attempt / n, "keys 7 and 8": keys / n} {
		if math.Abs(c) > 0.015 {
			t.Fatalf("correlation %v between %s", c, name)
		}
	}
}
