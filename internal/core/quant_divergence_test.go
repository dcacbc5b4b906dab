package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestQuantizedBoundedDivergence bounds how far the reduced-precision serving
// tiers may drift from float64 on the paper grid (Cholesky/LU/QR, T ∈ {4, 8}):
// per-decision argmax agreement along the float64 trajectory must stay at or
// above the tier's floor, and the full-episode makespan of the reduced-tier
// policy must stay within 5% of float64. The thresholds leave slack below the
// measured values (float32 agreed on 100% and int8 on ≥ 99.3% of decisions,
// with zero makespan delta); the bound documented in EXPERIMENTS.md mirrors
// these.
func TestQuantizedBoundedDivergence(t *testing.T) {
	floors := map[Precision]float64{
		PrecisionFloat32: 0.995,
		PrecisionInt8:    0.97,
	}
	const maxMakespanDelta = 0.05

	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		for _, T := range []int{4, 8} {
			for prec, floor := range floors {
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
}
