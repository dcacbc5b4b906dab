package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// fifoPolicy always starts the lowest-ID ready task.
type fifoPolicy struct{}

func (fifoPolicy) Reset(*State)               {}
func (fifoPolicy) Decide(s *State, _ int) int { return s.Ready[0] }

// rangePolicy is fifoPolicy that counts its decisions and notes being asked
// about a resource outside [0, n).
type rangePolicy struct {
	n, calls int
	bad      bool
}

func (p *rangePolicy) Reset(*State) {}
func (p *rangePolicy) Decide(s *State, r int) int {
	p.calls++
	p.bad = p.bad || r < 0 || r >= p.n
	return s.Ready[0]
}

// idlePolicy always answers ∅ — used to exercise deadlock detection.
type idlePolicy struct{}

func (idlePolicy) Reset(*State)           {}
func (idlePolicy) Decide(*State, int) int { return NoTask }

// badPolicy returns a non-ready task.
type badPolicy struct{}

func (badPolicy) Reset(*State) {}
func (badPolicy) Decide(s *State, _ int) int {
	return s.Graph.NumTasks() - 1 // the sink is never ready first
}

func chol(T int) (*taskgraph.Graph, platform.Platform, platform.Timing) {
	g := taskgraph.NewCholesky(T)
	return g, platform.New(2, 2), platform.TimingFor(taskgraph.Cholesky)
}

func TestSimulateCompletesAllTasks(t *testing.T) {
	g, plat, tim := chol(6)
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %v", res.Makespan)
	}
	if err := ValidateResult(g, plat.Size(), res); err != nil {
		t.Fatal(err)
	}
	if res.Decisions < g.NumTasks() {
		t.Fatalf("decisions %d < tasks %d", res.Decisions, g.NumTasks())
	}
}

// TestNonFiniteDurationIsRefused: σ = 1e308 is finite, but σ·E overflows, so
// tasks draw infinite durations, as they do at σ = +Inf. The run ends in an
// error that names the task, its resource and σ, not in the ErrDeadlock such
// a run used to end in once the clock had nowhere to go.
func TestNonFiniteDurationIsRefused(t *testing.T) {
	g, plat, tim := chol(3)
	for _, sigma := range []float64{1e308, math.Inf(1)} {
		_, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: sigma, Rng: rand.New(rand.NewSource(1))})
		if !errors.Is(err, ErrNonFiniteDuration) {
			t.Fatalf("sigma %g: got %v, want ErrNonFiniteDuration", sigma, err)
		}
		for _, want := range []string{"task ", "resource ", fmt.Sprintf("sigma %g", sigma)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("sigma %g: %q does not name the %s", sigma, err, strings.TrimSpace(want))
			}
		}
	}
}

func TestSimulateSingleTask(t *testing.T) {
	g := taskgraph.NewCholesky(1) // a single POTRF
	plat := platform.New(1, 0)
	tim := platform.TimingFor(taskgraph.Cholesky)
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 16 { // POTRF on CPU, sigma 0
		t.Fatalf("makespan = %v, want 16", res.Makespan)
	}
}

func TestSimulateNoiseChangesDurations(t *testing.T) {
	g, plat, tim := chol(5)
	a, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: 0.5, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: 0.5, Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan == b.Makespan {
		t.Fatal("different seeds under noise should differ")
	}
	if err := ValidateResult(g, plat.Size(), a); err != nil {
		t.Fatal(err)
	}
	if err := ValidateResult(g, plat.Size(), b); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateDeadlockDetection(t *testing.T) {
	g, plat, tim := chol(3)
	_, err := Simulate(g, plat, tim, idlePolicy{}, Options{Rng: rand.New(rand.NewSource(1))})
	if err != ErrDeadlock {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

func TestSimulateRejectsNonReadyTask(t *testing.T) {
	g, plat, tim := chol(3)
	_, err := Simulate(g, plat, tim, badPolicy{}, Options{Rng: rand.New(rand.NewSource(1))})
	if err == nil || !strings.Contains(err.Error(), "non-ready") {
		t.Fatalf("want non-ready error, got %v", err)
	}
}

func TestSimulateRequiresRng(t *testing.T) {
	g, plat, tim := chol(2)
	if _, err := Simulate(g, plat, tim, fifoPolicy{}, Options{}); err == nil {
		t.Fatal("missing rng should error")
	}
}

// TestSimulateValidScheduleProperty: every run is a valid schedule, the policy
// is only asked about existing resources (rangePolicy), and the decisions that
// were not ∅ started each task exactly once.
func TestSimulateValidScheduleProperty(t *testing.T) {
	f := func(seed int64, sigmaRaw uint8, kindSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		kinds := []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR}
		kind := kinds[int(kindSel)%3]
		T := 2 + int(seed%4+4)%4 // 2..5
		if T < 2 {
			T = 2
		}
		g := taskgraph.NewByKind(kind, T)
		plat := platform.New(1+int(seed%2+2)%2, 1+int(seed%3+3)%3)
		sigma := float64(sigmaRaw%5) * 0.1
		pol := &rangePolicy{n: plat.Size()}
		res, err := Simulate(g, plat, platform.TimingFor(kind), pol, Options{Sigma: sigma, Rng: rng})
		if err != nil || pol.bad || res.Decisions-res.IdleDecisions != g.NumTasks() {
			return false
		}
		return ValidateResult(g, plat.Size(), res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := taskgraph.NewLayeredRandom(rng, taskgraph.DefaultRandomConfig())
		plat := platform.New(2, 2)
		res, err := Simulate(g, plat, platform.TimingFor(taskgraph.Random), fifoPolicy{},
			Options{Sigma: 0.3, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateResult(g, plat.Size(), res); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOnDecisionCallback: Policy.Decide is the engine's per-decision hook; it
// is called once per start, each time on an existing resource.
func TestOnDecisionCallback(t *testing.T) {
	g, plat, tim := chol(4)
	pol := &rangePolicy{n: plat.Size()}
	res, err := Simulate(g, plat, tim, pol, Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if pol.bad {
		t.Fatal("policy asked about a resource outside the platform")
	}
	if pol.calls != res.Decisions || res.Decisions-res.IdleDecisions != g.NumTasks() {
		t.Fatalf("%d calls, %d decisions (%d idle) for %d tasks",
			pol.calls, res.Decisions, res.IdleDecisions, g.NumTasks())
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// Makespan can never beat the critical path executed entirely on the
	// fastest resource for each kernel.
	g, plat, tim := chol(6)
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	// Cheap bound: total GPU-time of all tasks / number of resources.
	var minTotal float64
	for _, task := range g.Tasks {
		best := math.Inf(1)
		for rt := platform.ResourceType(0); rt < platform.NumResourceTypes; rt++ {
			if d := tim.ExpectedDuration(task.Kernel, rt); d < best {
				best = d
			}
		}
		minTotal += best
	}
	bound := minTotal / float64(plat.Size())
	if res.Makespan < bound-1e-9 {
		t.Fatalf("makespan %.3f beats area bound %.3f", res.Makespan, bound)
	}
}

func TestTimeUntilFree(t *testing.T) {
	s := &State{
		Now:         10,
		BusyUntil:   []float64{5, 15},
		RunningTask: []int{NoTask, 3},
	}
	if !s.IsFree(0) || s.IsFree(1) {
		t.Fatal("IsFree wrong")
	}
	free := s.shuffledFree()
	if len(free) != 1 || free[0] != 0 {
		t.Fatalf("free resources = %v", free)
	}
}

func TestValidateResultCatchesViolations(t *testing.T) {
	g := taskgraph.NewCholesky(2) // 4 tasks: POTRF(0), TRSM(1,0), SYRK(1,0), POTRF(1)
	ok := Result{
		Makespan: 4,
		Trace: []Placement{
			{Task: 0, Resource: 0, Start: 0, End: 1},
			{Task: 1, Resource: 0, Start: 1, End: 2},
			{Task: 2, Resource: 0, Start: 2, End: 3},
			{Task: 3, Resource: 0, Start: 3, End: 4},
		},
	}
	if err := ValidateResult(g, 1, ok); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	precViolation := ok
	precViolation.Trace = append([]Placement(nil), ok.Trace...)
	precViolation.Trace[1] = Placement{Task: 1, Resource: 0, Start: 0.5, End: 2}
	if err := ValidateResult(g, 1, precViolation); err == nil {
		t.Fatal("precedence violation not caught")
	}
	overlap := Result{
		Makespan: 4,
		Trace: []Placement{
			{Task: 0, Resource: 0, Start: 0, End: 2},
			{Task: 1, Resource: 0, Start: 1.5, End: 3}, // overlaps task 0 (also precedence)
			{Task: 2, Resource: 0, Start: 3, End: 3.5},
			{Task: 3, Resource: 0, Start: 3.5, End: 4},
		},
	}
	if err := ValidateResult(g, 1, overlap); err == nil {
		t.Fatal("overlap not caught")
	}
	wrongMakespan := ok
	wrongMakespan.Makespan = 99
	if err := ValidateResult(g, 1, wrongMakespan); err == nil {
		t.Fatal("makespan mismatch not caught")
	}
	short := ok
	short.Trace = ok.Trace[:3]
	if err := ValidateResult(g, 1, short); err == nil {
		t.Fatal("missing placement not caught")
	}
}
