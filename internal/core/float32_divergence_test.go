package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestFloat32BoundedDivergence bounds how far the float32 serving tier may
// drift from float64 on the paper grid (Cholesky/LU/QR, T ∈ {4, 8}):
// per-decision argmax agreement along the float64 trajectory must stay at or
// above the floor, and the full-episode makespan of the float32 policy must
// stay within 5% of float64. The thresholds leave slack below the measured
// values (float32 agreed on 100% of decisions, with zero makespan delta); the
// bound documented in EXPERIMENTS.md mirrors these.
func TestFloat32BoundedDivergence(t *testing.T) {
	const (
		prec             = PrecisionFloat32
		floor            = 0.995
		maxMakespanDelta = 0.05
	)

	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		for _, T := range []int{4, 8} {
			agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 64, Seed: 1})
			prob := NewProblem(kind, T, 2, 2, 0.1)
			ctx := fmt.Sprintf("%v T=%d %v", kind, T, prec)

			// Per-decision agreement along the float64 trajectory.
			f64e := newServeEngine(agent, PrecisionFloat64)
			qe := newServeEngine(agent, prec)
			pol := NewPolicy(agent)
			agree, total := 0, 0
			probe := policyFunc{
				reset: pol.Reset,
				decide: func(s *sim.State, r int) int {
					es := EncodeFault(s, r, pol.unionFeats(s.Graph), agent.Cfg.Window, agent.Cfg.Directed, agent.Cfg.FaultFeatures)
					lpA, _ := f64e.forward(es)
					a := argmaxLogProbs(lpA)
					lpB, _ := qe.forward(es)
					if a == argmaxLogProbs(lpB) {
						agree++
					}
					total++
					return pol.Decide(s, r)
				},
			}
			if _, err := prob.Simulate(probe, rand.New(rand.NewSource(5))); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if total == 0 {
				t.Fatalf("%s: no decisions compared", ctx)
			}
			if rate := float64(agree) / float64(total); rate < floor {
				t.Errorf("%s: argmax agreement %.4f (%d/%d) below floor %.3f", ctx, rate, agree, total, floor)
			}

			// Full-episode makespan bound.
			rq, err := prob.Simulate(NewServingPolicy(agent, prec), rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			rf, err := prob.Simulate(NewServingPolicy(agent, PrecisionFloat64), rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if delta := math.Abs(rq.Makespan-rf.Makespan) / rf.Makespan; delta > maxMakespanDelta {
				t.Errorf("%s: makespan delta %.4f exceeds %.2f (%.3f vs %.3f)",
					ctx, delta, maxMakespanDelta, rq.Makespan, rf.Makespan)
			}
		}
	}
}

// TestParsePrecision: the two tiers parse under their names, round-trip through
// String, and a tier that no longer exists is an error naming the accepted
// ones — readys-serve -precision int8 must fail at start-up, not serve
// something else.
func TestParsePrecision(t *testing.T) {
	for name, want := range map[string]Precision{
		"": PrecisionFloat64, "float64": PrecisionFloat64, "f64": PrecisionFloat64,
		"float32": PrecisionFloat32, "f32": PrecisionFloat32,
	} {
		got, err := ParsePrecision(name)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, p := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		if got, err := ParsePrecision(p.String()); err != nil || got != p {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range []string{"int8", "q8", "float16"} {
		_, err := ParsePrecision(name)
		if err == nil {
			t.Errorf("ParsePrecision(%q) accepted a tier that does not exist", name)
			continue
		}
		for _, tier := range []string{"float64", "float32"} {
			if !strings.Contains(err.Error(), tier) {
				t.Errorf("ParsePrecision(%q) error %q does not list %s", name, err, tier)
			}
		}
	}
}
