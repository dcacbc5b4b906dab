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
// structural validator (balanced B/E, monotonic per-lane timestamps).
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
	var begins, ends int
	threadNames := map[int64]string{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case obs.PhaseBegin:
			begins++
		case obs.PhaseEnd:
			ends++
		case obs.PhaseMetadata:
			if e.Name == "thread_name" {
				threadNames[e.TID] = e.Args["name"].(string)
			}
		}
	}
	if begins != g.NumTasks() || ends != g.NumTasks() {
		t.Fatalf("B=%d E=%d events, want %d each", begins, ends, g.NumTasks())
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

// TestTraceIsDeterministicAndInert asserts that attaching a tracer neither
// consumes randomness nor alters the schedule, and that two traced runs with
// the same seed export identical bytes.
func TestTraceIsDeterministicAndInert(t *testing.T) {
	g, plat, tim := chol(4)
	run := func(trace bool) ([]byte, Result) {
		opt := Options{Sigma: 0.3, Rng: rand.New(rand.NewSource(11))}
		var tr *obs.Tracer
		if trace {
			tr = obs.NewTracer(0)
			opt.Tracer = tr
		}
		res, err := Simulate(g, plat, tim, fifoPolicy{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !trace {
			return nil, res
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res
	}
	_, plain := run(false)
	t1, traced := run(true)
	t2, _ := run(true)
	if plain.Makespan != traced.Makespan || plain.Decisions != traced.Decisions {
		t.Fatalf("tracing changed the schedule: %+v vs %+v", plain, traced)
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("same seed produced different traces")
	}
}

// TestTracePropertyAnySchedule is the fuzz-ish property test: any simulated
// schedule — random layered DAGs, varying platforms and noise levels — must
// export parseable, structurally valid Chrome trace JSON.
func TestTracePropertyAnySchedule(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
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
		opt := Options{Sigma: []float64{0, 0.2, 0.5}[rng.Intn(3)], Rng: rng}
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
