package readys_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/platform"
	"readys/internal/serve"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestOneDecisionRuleAcrossPaths: READYS decides the same way wherever it
// runs. For a Figure 3 cell (LU T=8 on 2c2g) and a Figure 4 cell (Cholesky
// T=10 on 4c0g, by the T=8 agent), the path readys-sim -policy readys takes
// (exp.LoadAgent, core.NewPolicy, sim.Simulate seeded with the seed), a
// /v1/schedule answer and the tables' evaluator (exp.Compare, whose first run
// has the base seed) give the same makespan for the same seed.
func TestOneDecisionRuleAcrossPaths(t *testing.T) {
	models := exp.DefaultModelsDir()
	srv := serve.New(serve.Config{ModelsDir: models, Workers: 1, Queue: 4, RequestTimeout: 10 * time.Second})
	for _, c := range []struct {
		fig        string
		kind       taskgraph.Kind
		trainT, T  int
		cpus, gpus int
		sigma      float64
		seed       int64
	}{
		{"Fig. 3", taskgraph.LU, 8, 8, 2, 2, 0.2, 42},
		{"Fig. 4", taskgraph.Cholesky, 8, 10, 4, 0, 0.1, 43},
	} {
		name := fmt.Sprintf("%s %s T=%d %dc%dg σ=%g seed %d", c.fig, c.kind, c.T, c.cpus, c.gpus, c.sigma, c.seed)
		agent, err := exp.LoadAgent(exp.DefaultAgentSpec(c.kind, c.trainT, c.cpus, c.gpus), models)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		g := taskgraph.NewByKind(c.kind, c.T)
		plat := platform.New(c.cpus, c.gpus)
		lib, err := sim.Simulate(g, plat, platform.TimingFor(c.kind), core.NewPolicy(agent),
			sim.Options{Sigma: c.sigma, Rng: rand.New(rand.NewSource(c.seed))})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		body, err := json.Marshal(serve.ScheduleRequest{Kind: c.kind.String(), T: c.T, TrainT: c.trainT,
			CPUs: c.cpus, GPUs: c.gpus, Sigma: c.sigma, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		var served serve.ScheduleResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		pts, err := exp.Compare(agent, c.kind, c.T, c.cpus, c.gpus, []float64{c.sigma}, 1, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		if served.Makespan != lib.Makespan || pts[0].READYS.Mean != lib.Makespan {
			t.Fatalf("%s: readys-sim path %v ms, /v1/schedule %v ms, evaluator %v ms",
				name, lib.Makespan, served.Makespan, pts[0].READYS.Mean)
		}
	}
}
