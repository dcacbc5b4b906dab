package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/taskgraph"
)

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   FaultEvent
	}{
		{"unknown resource", FaultEvent{Kind: FaultOutage, Resource: 9, At: 1, Duration: 1}},
		{"negative time", FaultEvent{Kind: FaultDeath, Resource: 0, At: -1}},
		{"zero outage duration", FaultEvent{Kind: FaultOutage, Resource: 0, At: 1}},
		{"zero degrade factor", FaultEvent{Kind: FaultDegrade, Resource: 0, At: 1}},
		{"unknown kind", FaultEvent{Kind: FaultKind(42), Resource: 0, At: 1}},
	}
	for _, c := range cases {
		p := &FaultPlan{Events: []FaultEvent{c.ev}}
		if err := p.Validate(2); err == nil {
			t.Errorf("%s: not rejected", c.name)
		}
	}
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(2); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
	good := &FaultPlan{Events: []FaultEvent{
		{Kind: FaultOutage, Resource: 0, At: 0, Duration: 3},
		{Kind: FaultDeath, Resource: 1, At: 5},
		{Kind: FaultDegrade, Resource: 0, At: 2, Factor: 0.5},
	}}
	if err := good.Validate(2); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

func TestGeneratePlanDeterministicAndSparing(t *testing.T) {
	spec := FaultSpec{Horizon: 100, OutageRate: 1.5, DeathProb: 1, DegradeRate: 0.7}
	a := GeneratePlan(11, 4, spec)
	b := GeneratePlan(11, 4, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if reflect.DeepEqual(a, GeneratePlan(12, 4, spec)) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(4); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	// DeathProb 1 kills every resource except the spared one.
	dead := make([]bool, 4)
	for _, e := range a.Events {
		dead[e.Resource] = dead[e.Resource] || e.Kind == FaultDeath
	}
	alive := 0
	for _, d := range dead {
		if !d {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("want exactly 1 survivor at DeathProb 1, got %d", alive)
	}
	// Zero-rate spec and zero horizon generate nothing.
	if p := GeneratePlan(1, 4, FaultSpec{Horizon: 100}); !p.Empty() {
		t.Fatal("disabled spec generated events")
	}
	if p := GeneratePlan(1, 4, FaultSpec{OutageRate: 1}); !p.Empty() {
		t.Fatal("zero horizon generated events")
	}
}

func TestSpecForRate(t *testing.T) {
	if SpecForRate(0, 100).Enabled() {
		t.Fatal("rate 0 should disable faults")
	}
	sp := SpecForRate(1, 100)
	if !sp.Enabled() || sp.OutageRate != 1 || sp.DegradeRate != 1 {
		t.Fatalf("unexpected spec %+v", sp)
	}
	if hi := SpecForRate(10, 100); hi.DeathProb > 0.4 {
		t.Fatalf("death probability uncapped: %v", hi.DeathProb)
	}
}

// singleTask returns a 1-task problem on one CPU: POTRF, expected 16ms.
func singleTask() (*taskgraph.Graph, platform.Platform, platform.Timing) {
	return taskgraph.NewCholesky(1), platform.New(1, 0), platform.TimingFor(taskgraph.Cholesky)
}

func TestOutageKillsAndReexecutes(t *testing.T) {
	g, plat, tim := singleTask()
	plan := &FaultPlan{Events: []FaultEvent{{Kind: FaultOutage, Resource: 0, At: 8, Duration: 12}}}
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 runs [0, 8) and is killed; the resource recovers at 20 and
	// the re-execution runs [20, 36].
	if res.Makespan != 36 {
		t.Fatalf("makespan = %v, want 36", res.Makespan)
	}
	if len(res.Kills) != 1 {
		t.Fatalf("kills = %+v, want exactly one", res.Kills)
	}
	k := res.Kills[0]
	if k.Task != 0 || k.Resource != 0 || k.Start != 0 || k.At != 8 || k.Cause != FaultOutage {
		t.Fatalf("unexpected kill record %+v", k)
	}
	if err := ValidateResultStrict(g, res, CheckOptions{Platform: plat, Timing: tim, Faults: plan}); err != nil {
		t.Fatal(err)
	}
}

func TestOutageTieCompletionWins(t *testing.T) {
	g, plat, tim := singleTask()
	// Outage begins exactly when the task completes: the completion wins the
	// tie and nothing is killed.
	plan := &FaultPlan{Events: []FaultEvent{{Kind: FaultOutage, Resource: 0, At: 16, Duration: 4}}}
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 16 || len(res.Kills) != 0 {
		t.Fatalf("makespan %v kills %d, want 16 and none", res.Makespan, len(res.Kills))
	}
}

func TestDegradeRetimesInFlightWork(t *testing.T) {
	g, plat, tim := singleTask()
	// Half the work done at nominal speed, the rest at factor 2:
	// 8 + 8·2 = 24.
	plan := &FaultPlan{Events: []FaultEvent{{Kind: FaultDegrade, Resource: 0, At: 8, Factor: 2}}}
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 24 {
		t.Fatalf("makespan = %v, want 24", res.Makespan)
	}
	if len(res.Kills) != 0 {
		t.Fatal("degrade must not kill")
	}
	if err := ValidateResultStrict(g, res, CheckOptions{Platform: plat, Timing: tim, Faults: plan}); err != nil {
		t.Fatal(err)
	}
	// A task *started* after the degrade samples at the new factor.
	late := &FaultPlan{Events: []FaultEvent{{Kind: FaultDegrade, Resource: 0, At: 0, Factor: 2}}}
	res2, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1)), Faults: late})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan != 32 {
		t.Fatalf("makespan = %v, want 32", res2.Makespan)
	}
}

func TestDeathKillsResourceForGood(t *testing.T) {
	g, plat, tim := chol(4)
	plan := &FaultPlan{Events: []FaultEvent{{Kind: FaultDeath, Resource: 0, At: 10}}}
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(2)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Trace {
		if p.Resource == 0 && p.End > 10 {
			t.Fatalf("task %d ran on dead resource until %v", p.Task, p.End)
		}
	}
	if err := ValidateResultStrict(g, res, CheckOptions{Platform: plat, Timing: tim, Faults: plan}); err != nil {
		t.Fatal(err)
	}
}

func TestAllResourcesDeadErrors(t *testing.T) {
	g, plat, tim := singleTask()
	plan := &FaultPlan{Events: []FaultEvent{{Kind: FaultDeath, Resource: 0, At: 5}}}
	_, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1)), Faults: plan})
	if !errors.Is(err, ErrAllResourcesDead) {
		t.Fatalf("want ErrAllResourcesDead, got %v", err)
	}
}

func TestOverlappingOutagesRecoverAtLatestEnd(t *testing.T) {
	g, plat, tim := singleTask()
	plan := &FaultPlan{Events: []FaultEvent{
		{Kind: FaultOutage, Resource: 0, At: 2, Duration: 10}, // down [2, 12)
		{Kind: FaultOutage, Resource: 0, At: 6, Duration: 2},  // nested [6, 8)
	}}
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	// Killed at 2; the nested recovery at 8 must NOT restart the task: it
	// reruns only from 12. 12 + 16 = 28.
	if res.Makespan != 28 {
		t.Fatalf("makespan = %v, want 28", res.Makespan)
	}
	if err := ValidateResultStrict(g, res, CheckOptions{Platform: plat, Timing: tim, Faults: plan}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyPlanBitInert(t *testing.T) {
	g, plat, tim := chol(5)
	run := func(plan *FaultPlan) Result {
		res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: 0.3, Rng: rand.New(rand.NewSource(9)), Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	if got := run(&FaultPlan{}); !reflect.DeepEqual(base, got) {
		t.Fatal("empty plan changed the result")
	}
}

func TestFaultRunsDeterministicPerSeed(t *testing.T) {
	g, plat, tim := chol(6)
	plan := GeneratePlan(3, plat.Size(), SpecForRate(1.5, 400))
	a, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: 0.2, Rng: rand.New(rand.NewSource(4)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: 0.2, Rng: rand.New(rand.NewSource(4)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (plan, seed) produced different results")
	}
}

func TestValidateResultStrictChecksDurations(t *testing.T) {
	g, plat, tim := chol(4)
	res, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	opt := CheckOptions{Platform: plat, Timing: tim}
	if err := ValidateResultStrict(g, res, opt); err != nil {
		t.Fatalf("honest sigma-0 run rejected: %v", err)
	}
	// Stretch one slice: passes the old validator, fails the strict one.
	forged := res
	forged.Trace = append([]Placement(nil), res.Trace...)
	last := -1
	var maxStart float64
	for i, p := range forged.Trace {
		if p.Start >= maxStart {
			maxStart, last = p.Start, i
		}
	}
	forged.Trace[last].End += 7
	forged.Makespan = 0
	for _, p := range forged.Trace {
		if p.End > forged.Makespan {
			forged.Makespan = p.End
		}
	}
	if err := ValidateResult(g, plat.Size(), forged); err != nil {
		t.Fatalf("forged run should pass the base validator: %v", err)
	}
	if err := ValidateResultStrict(g, forged, opt); err == nil {
		t.Fatal("stretched duration not caught")
	} else if !strings.Contains(err.Error(), "compute time") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Noisy runs pass the envelope check.
	noisy, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: 0.4, Rng: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateResultStrict(g, noisy, CheckOptions{Platform: plat, Timing: tim, Sigma: 0.4}); err != nil {
		t.Fatalf("honest noisy run rejected: %v", err)
	}
}

func TestValidateResultStrictChecksFaultWindows(t *testing.T) {
	g, plat, tim := singleTask()
	plan := &FaultPlan{Events: []FaultEvent{{Kind: FaultOutage, Resource: 0, At: 8, Duration: 12}}}
	opt := CheckOptions{Platform: plat, Timing: tim, Faults: plan}
	// A slice running straight through the outage must be rejected.
	inside := Result{
		Makespan: 16,
		Trace:    []Placement{{Task: 0, Resource: 0, Start: 0, End: 16}},
	}
	if err := ValidateResultStrict(g, inside, opt); err == nil {
		t.Fatal("outage overlap not caught")
	} else if !strings.Contains(err.Error(), "outage") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Execution past a death must be rejected.
	death := &FaultPlan{Events: []FaultEvent{{Kind: FaultDeath, Resource: 0, At: 8}}}
	if err := ValidateResultStrict(g, inside, CheckOptions{Platform: plat, Timing: tim,
		Faults: &FaultPlan{Events: append(death.Events, FaultEvent{Kind: FaultDeath, Resource: 0, At: 8})}}); err == nil {
		t.Fatal("all-dead plan with a complete result not caught")
	}
	twoRes := platform.New(2, 0)
	deadRun := Result{Makespan: 16, Trace: []Placement{{Task: 0, Resource: 0, Start: 0, End: 16}}}
	if err := ValidateResultStrict(g, deadRun, CheckOptions{Platform: twoRes, Timing: tim, Faults: death}); err == nil {
		t.Fatal("post-death execution not caught")
	} else if !strings.Contains(err.Error(), "died") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Inconsistent kill records are rejected.
	okRun, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Rng: rand.New(rand.NewSource(1)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	bad := okRun
	bad.Kills = []Kill{{Task: 0, Resource: 0, Start: 9, At: 3, Cause: FaultOutage}}
	if err := ValidateResultStrict(g, bad, opt); err == nil {
		t.Fatal("kill before its start not caught")
	}
	bad.Kills = []Kill{{Task: 0, Resource: 0, Start: 0, At: 8, Cause: FaultDegrade}}
	if err := ValidateResultStrict(g, bad, opt); err == nil {
		t.Fatal("degrade kill cause not caught")
	}
}

func TestFaultTraceIsValidChromeTraceAndInert(t *testing.T) {
	g, plat, tim := chol(5)
	plan := GeneratePlan(7, plat.Size(), SpecForRate(2, 500))
	if plan.Empty() {
		t.Fatal("test plan unexpectedly empty")
	}
	tr := obs.NewTracer(1 << 14)
	traced, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: 0.2, Rng: rand.New(rand.NewSource(8)), Faults: plan, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: 0.2, Rng: rand.New(rand.NewSource(8)), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, plain) {
		t.Fatal("tracing changed a faulty run")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("fault trace invalid: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, `"outage"`) {
		t.Fatal("trace missing outage spans")
	}
	if len(traced.Kills) > 0 && !strings.Contains(out, `"kill"`) {
		t.Fatal("trace missing kill instants")
	}
}

func TestFaultStateAccessorsOnHandBuiltState(t *testing.T) {
	// States assembled by hand (no fault bookkeeping) must behave as fully
	// up, alive, nominal speed.
	s := &State{RunningTask: []int{NoTask}}
	if !s.ResourceUp(0) || s.SpeedFactor(0) != 1 {
		t.Fatal("nil fault state must read as healthy")
	}
	if !s.IsFree(0) {
		t.Fatal("idle resource with nil fault state must be free")
	}
}
