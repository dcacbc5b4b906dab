package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/taskgraph"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// simulateTraced runs one episode with a tracer attached and returns the
// exported Chrome trace JSON.
func simulateTraced(t *testing.T, g *taskgraph.Graph, plat platform.Platform, tim platform.Timing, pol Policy, opt Options) ([]byte, Result) {
	t.Helper()
	tr := obs.NewTracer(0)
	opt.Tracer = tr
	res, err := Simulate(g, plat, tim, pol, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestTraceGoldenCholesky pins the Chrome trace of a small fixed-seed
// Cholesky schedule: the export must be byte-identical to the checked-in
// golden file (stable lane naming, stable event ordering) and pass the
// structural validator, with one task slice per task.
// Regenerate with: go test ./internal/sim -run TestTraceGolden -update
func TestTraceGoldenCholesky(t *testing.T) {
	g, plat, tim := chol(3)
	data, res := simulateTraced(t, g, plat, tim, fifoPolicy{}, Options{Sigma: 0.2, Rng: rand.New(rand.NewSource(7))})

	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}

	golden := filepath.Join("testdata", "cholesky_T3_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("trace drifted from golden file (run with -update if intended)\ngot:  %.400s\nwant: %.400s", data, want)
	}

	// Structural cross-checks against the schedule itself.
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	slices := 0
	threadNames := map[int64]string{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == obs.PhaseComplete && e.Cat == "task":
			slices++
		case e.Ph == obs.PhaseMetadata && e.Name == "thread_name":
			threadNames[e.TID] = e.Args["name"].(string)
		}
	}
	if slices != g.NumTasks() {
		t.Fatalf("%d task slices, want %d", slices, g.NumTasks())
	}
	for r, res := range plat.Resources {
		want := fmt.Sprintf("%s %d", res.Type, r)
		if threadNames[int64(r)] != want {
			t.Fatalf("lane %d named %q, want %q", r, threadNames[int64(r)], want)
		}
	}
	if res.Makespan <= 0 {
		t.Fatal("schedule did not run")
	}
}

// TestTraceIsDeterministicAndInert asserts that two traced runs with the same
// seed export identical bytes. That a tracer leaves the schedule as it is, is
// the traced relation of the root package's TestDifferential.
func TestTraceIsDeterministicAndInert(t *testing.T) {
	g, plat, tim := chol(4)
	export := func() []byte {
		tr := obs.NewTracer(0)
		if _, err := Simulate(g, plat, tim, fifoPolicy{}, Options{Sigma: 0.3, Rng: rand.New(rand.NewSource(11)), Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(export(), export()) {
		t.Fatal("same seed produced different traces")
	}
}

// traceSeeds is how many random cases the trace property tests draw.
const traceSeeds = 25

// randomTraceCase draws the property tests' case for seed: a random layered
// DAG on a random platform at a random noise level, its options drawing
// durations from the rng that drew the case.
func randomTraceCase(seed int64) (*taskgraph.Graph, platform.Platform, platform.Timing, Options) {
	rng := rand.New(rand.NewSource(seed))
	cfg := taskgraph.RandomConfig{
		Layers:       2 + rng.Intn(5),
		WidthMin:     1,
		WidthMax:     1 + rng.Intn(5),
		EdgeProb:     0.3,
		LongEdgeProb: 0.1,
	}
	g := taskgraph.NewLayeredRandom(rng, cfg)
	plat := platform.New(1+rng.Intn(3), rng.Intn(3))
	tim := platform.TimingFor(taskgraph.Random)
	return g, plat, tim, Options{Sigma: []float64{0, 0.2, 0.5}[rng.Intn(3)], Rng: rng}
}

// TestTracePropertyAnySchedule is the fuzz-ish property test: any simulated
// schedule — random layered DAGs, varying platforms and noise levels — must
// export parseable, structurally valid Chrome trace JSON.
func TestTracePropertyAnySchedule(t *testing.T) {
	for seed := int64(0); seed < traceSeeds; seed++ {
		g, plat, tim, opt := randomTraceCase(seed)
		data, res := simulateTraced(t, g, plat, tim, fifoPolicy{}, opt)
		if err := obs.ValidateChromeTrace(data); err != nil {
			t.Fatalf("seed %d (%d tasks, %s, σ=%g): %v",
				seed, g.NumTasks(), plat, opt.Sigma, err)
		}
		if err := ValidateResult(g, plat.Size(), res); err != nil {
			t.Fatalf("seed %d: schedule invalid: %v", seed, err)
		}
	}
}

// checkSlicesAreSchedule holds a traced run's task slices to its schedule:
// every placement of res.Trace and every kill of res.Kills has exactly one
// task slice — on its resource's lane, from start·1000 for end·1000 −
// start·1000 (the kill instant's for a kill) — and every task slice is one
// of them.
func checkSlicesAreSchedule(t *testing.T, events []obs.Event, res Result) {
	t.Helper()
	type attempt struct {
		task, lane int64
		ts, dur    float64
	}
	at := func(task, lane int, start, end float64) attempt {
		return attempt{int64(task), int64(lane), start * 1000, end*1000 - start*1000}
	}
	want := make(map[attempt]int)
	for _, p := range res.Trace {
		want[at(p.Task, p.Resource, p.Start, p.End)]++
	}
	for _, k := range res.Kills {
		want[at(k.Task, k.Resource, k.Start, k.At)]++
	}
	got := make(map[attempt]int)
	for _, e := range events {
		if e.Cat != "task" {
			continue
		}
		task, ok := e.Args["task"].(int64)
		if e.Ph != obs.PhaseComplete || e.PID != TracePID || !ok {
			t.Fatalf("task event %+v is no complete slice of a task on a resource lane", e)
		}
		got[attempt{task, e.TID, e.TS, e.Dur}]++
	}
	for a, n := range want {
		if n != 1 || got[a] != 1 {
			t.Errorf("attempt %+v: %d in the schedule, %d task slices", a, n, got[a])
		}
	}
	for a, n := range got {
		if want[a] == 0 {
			t.Errorf("task slice %+v (%d of them) is no placement or kill of the schedule", a, n)
		}
	}
}

// TestTraceSlicesAreTheSchedule: over the property cases, fault-free and
// under a fault plan over the fault-free makespan, and over a faulted stream
// of jobs arriving at a cluster, a traced run's task slices are exactly its
// placements and killed attempts.
func TestTraceSlicesAreTheSchedule(t *testing.T) {
	kills := 0
	for seed := int64(0); seed < traceSeeds; seed++ {
		g, plat, tim, opt := randomTraceCase(seed)
		tr := obs.NewTracer(0)
		opt.Tracer = tr
		res, err := Simulate(g, plat, tim, fifoPolicy{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkSlicesAreSchedule(t, tr.Events(), res)

		g, plat, tim, opt = randomTraceCase(seed)
		tr = obs.NewTracer(0)
		opt.Tracer = tr
		opt.Faults = GeneratePlan(seed, plat.Size(), SpecForRate(2, res.Makespan))
		res, err = Simulate(g, plat, tim, fifoPolicy{}, opt)
		if err != nil {
			t.Fatalf("seed %d under faults: %v", seed, err)
		}
		checkSlicesAreSchedule(t, tr.Events(), res)
		kills += len(res.Kills)
	}
	if kills == 0 {
		t.Fatal("the fault plans killed no attempt")
	}

	plat := platform.New(2, 2)
	tr := obs.NewTracer(0)
	c, err := NewCluster(plat, Options{
		Sigma: 0.2, Rng: rand.New(rand.NewSource(3)), Tracer: tr,
		Faults: GeneratePlan(5, plat.Size(), SpecForRate(2, 200)),
	})
	if err != nil {
		t.Fatal(err)
	}
	shapes := []*taskgraph.Graph{taskgraph.NewCholesky(3), taskgraph.NewLU(3)}
	for j := 0; j < 12; j++ {
		if err := c.RunUntil(fifoPolicy{}, float64(j)*12); err != nil {
			t.Fatal(err)
		}
		g := shapes[j%len(shapes)]
		if _, err := c.AddJob(j, g, platform.TimingFor(g.Kind)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(fifoPolicy{}); err != nil {
		t.Fatal(err)
	}
	res := c.Result()
	if len(res.Kills) == 0 {
		t.Fatal("the stream's fault plan killed no attempt")
	}
	checkSlicesAreSchedule(t, tr.Events(), res)
}

// TestTraceGoldenFaultedStream pins the export of every event kind the
// simulator writes, through a ring small enough to wrap: a stream of jobs
// arriving at a 2c2g cluster under an outage, a degrade and a death, traced
// into a tracer that keeps its newest events and counts the rest as dropped.
// The retained window holds task slices, "arrive jN" instants (three int
// attributes), an "outage" slice, "degrade" (a float attribute), "kill" (int,
// float and string attributes), "death" and the terminal "dead" slice, and
// the export ends with otherData.dropped_events.
// Regenerate with: go test ./internal/sim -run TestTraceGolden -update
func TestTraceGoldenFaultedStream(t *testing.T) {
	plat := platform.New(2, 2)
	tr := obs.NewTracer(53)
	c, err := NewCluster(plat, Options{
		Sigma: 0.2, Rng: rand.New(rand.NewSource(17)), Tracer: tr,
		Faults: &FaultPlan{Events: []FaultEvent{
			{Kind: FaultOutage, Resource: 1, At: 370, Duration: 7},
			{Kind: FaultDegrade, Resource: 2, At: 375, Factor: 1.75},
			{Kind: FaultDeath, Resource: 3, At: 380},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	shapes := []*taskgraph.Graph{taskgraph.NewCholesky(3), taskgraph.NewLU(3)}
	for j := 0; j < 10; j++ {
		if err := c.RunUntil(fifoPolicy{}, float64(j)*40); err != nil {
			t.Fatal(err)
		}
		g := shapes[j%len(shapes)]
		if _, err := c.AddJob(j, g, platform.TimingFor(g.Kind)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(fifoPolicy{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}

	var doc struct {
		TraceEvents []obs.Event    `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		name := e.Name
		if e.Cat == "arrival" {
			name = "arrive"
		} else if e.Cat == "task" {
			name = "task"
		}
		seen[name] = true
	}
	for _, name := range []string{"task", "arrive", "outage", "degrade", "kill", "death", "dead"} {
		if !seen[name] {
			t.Errorf("the retained window holds no %q event", name)
		}
	}
	if d, _ := doc.OtherData["dropped_events"].(float64); d == 0 {
		t.Errorf("otherData = %v: the ring did not wrap", doc.OtherData)
	}

	golden := filepath.Join("testdata", "faulted_stream_trace.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("trace drifted from golden file (run with -update if intended)\ngot:  %.400s\nwant: %.400s", data, want)
	}
}
