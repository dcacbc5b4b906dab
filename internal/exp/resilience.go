package exp

import (
	"fmt"

	"readys/internal/core"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// FaultRates is the default fault-rate sweep of the resilience benchmark:
// rate 0 is the fault-free reference, rate 1 the "one disruption of each
// kind per resource" operating point (see sim.SpecForRate).
var FaultRates = []float64{0, 0.5, 1, 2}

// ResiliencePoint is one fault-rate point of the resilience benchmark: mean
// makespans of the four schedulers plus their degradation relative to the
// same scheduler's fault-free mean (1 = unaffected, 2 = twice as slow).
type ResiliencePoint struct {
	Rate       float64
	READYS     Summary
	HEFT       Summary
	ReplanHEFT Summary
	MCT        Summary
	// Degradation factors: mean(rate) / mean(rate 0) per scheduler. The
	// benchmark's headline is the gap between these curves — a dynamic
	// policy should degrade far more gracefully than a static plan.
	DegradeREADYS float64
	DegradeHEFT   float64
	DegradeReplan float64
	DegradeMCT    float64
}

// ResilienceSweep benchmarks READYS against static HEFT, re-planning HEFT and
// MCT under increasing fault rates on the (kind, T, platform, sigma) problem.
//
// The comparison is paired: at each (rate, run) every scheduler replays the
// *same* fault plan and draws the same duration for every (task, attempt) it
// starts, so differences isolate scheduling behaviour. Run i replays the
// plan of sim.PlanSeed(seed + i) at every rate, with a horizon of
// core.FaultHorizonFactor times the HEFT projection; plans from
// sim.GeneratePlan always spare one resource, so runs complete. A run that
// fails (a deadlock, say) fails the sweep, as in Compare.
func ResilienceSweep(agent *core.Agent, kind taskgraph.Kind, T, numCPU, numGPU int, sigma float64, rates []float64, runs int, seed int64) ([]ResiliencePoint, error) {
	prob := core.NewProblem(kind, T, numCPU, numGPU, sigma)
	heft := sched.HEFT(prob.Graph, prob.Platform, prob.Timing)
	horizon := core.FaultHorizonFactor * heft.Makespan

	e := newEvaluator()
	scheds := []scheduler{
		{"READYS", core.NewPolicy(agent)},
		{"HEFT", sched.NewStaticPolicy(heft)},
		{"ReplanHEFT", sched.NewReplanHEFTPolicy()},
		{"MCT", sched.MCTPolicy{}},
	}
	out := make([]ResiliencePoint, 0, len(rates))
	for _, rate := range rates {
		prob.Faults = sim.SpecForRate(rate, horizon)
		ms, err := e.makespans(prob, scheds, runs, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: resilience on %s T=%d fault rate %g: %w", kind, T, rate, err)
		}
		out = append(out, ResiliencePoint{
			Rate:       rate,
			READYS:     Summarise(ms[0]),
			HEFT:       Summarise(ms[1]),
			ReplanHEFT: Summarise(ms[2]),
			MCT:        Summarise(ms[3]),
		})
	}
	// Degradation relative to the first rate point (by convention rate 0).
	if len(out) > 0 {
		ref := out[0]
		ratio := func(cur, base float64) float64 {
			if base <= 0 {
				return 0
			}
			return cur / base
		}
		for i := range out {
			out[i].DegradeREADYS = ratio(out[i].READYS.Mean, ref.READYS.Mean)
			out[i].DegradeHEFT = ratio(out[i].HEFT.Mean, ref.HEFT.Mean)
			out[i].DegradeReplan = ratio(out[i].ReplanHEFT.Mean, ref.ReplanHEFT.Mean)
			out[i].DegradeMCT = ratio(out[i].MCT.Mean, ref.MCT.Mean)
		}
	}
	return out, nil
}

// ResilienceTable renders a resilience sweep as the benchmark's figure table.
func ResilienceTable(points []ResiliencePoint, kind taskgraph.Kind, T, numCPU, numGPU int, sigma float64) *Table {
	tab := &Table{
		Title: fmt.Sprintf("Resilience: makespan degradation vs fault rate (%s T=%d, %dCPU+%dGPU, sigma=%g)",
			kind, T, numCPU, numGPU, sigma),
		Header: []string{"fault_rate",
			"readys_ms", "heft_ms", "replan_heft_ms", "mct_ms",
			"degrade_readys", "degrade_heft", "degrade_replan_heft", "degrade_mct"},
	}
	for _, pt := range points {
		tab.AddRow(F(pt.Rate),
			F(pt.READYS.Mean), F(pt.HEFT.Mean), F(pt.ReplanHEFT.Mean), F(pt.MCT.Mean),
			F(pt.DegradeREADYS), F(pt.DegradeHEFT), F(pt.DegradeReplan), F(pt.DegradeMCT))
	}
	return tab
}

// ResilienceFigure regenerates the resilience benchmark end-to-end on the
// repo's reference configuration (Cholesky T=8 on 2 CPUs + 2 GPUs, the
// paper's main platform) at mild duration noise, with the committed agent
// from modelsDir; a missing checkpoint is an error.
func ResilienceFigure(modelsDir string) (*Table, error) {
	spec := DefaultAgentSpec(taskgraph.Cholesky, 8, 2, 2)
	agent, err := LoadAgent(spec, modelsDir)
	if err != nil {
		return nil, fmt.Errorf("exp: resilience figure %s: %w", spec.Name(), err)
	}
	pts, err := ResilienceSweep(agent, taskgraph.Cholesky, 8, 2, 2, 0.1, FaultRates, EvalRuns, 47)
	if err != nil {
		return nil, err
	}
	return ResilienceTable(pts, taskgraph.Cholesky, 8, 2, 2, 0.1), nil
}
