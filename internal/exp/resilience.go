package exp

import (
	"fmt"
	"math/rand"

	"readys/internal/core"
	"readys/internal/platform"
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
// *same* fault plan with the same duration-noise seed, so differences isolate
// scheduling behaviour. Fault plans are derived from (seed, rate index, run)
// with a horizon of core.FaultHorizonFactor times the HEFT projection; plans
// from sim.GeneratePlan always spare one resource, so runs complete (a
// scheduler failing a run — e.g. a deadlock — simply contributes no sample,
// like the error paths in Compare).
func ResilienceSweep(agent *core.Agent, kind taskgraph.Kind, T, numCPU, numGPU int, sigma float64, rates []float64, runs int, seed int64) []ResiliencePoint {
	g := taskgraph.NewFrozenByKind(kind, T)
	plat := platform.New(numCPU, numGPU)
	tt := platform.TimingFor(kind)
	heft := sched.HEFT(g, plat, tt)
	horizon := core.FaultHorizonFactor * heft.Makespan

	// One simulator, one policy and two generators serve every run, as in
	// Compare.
	var runner sim.Runner
	rng, polRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	pol := core.NewPolicy(agent)
	pol.Greedy, pol.Temperature, pol.Rng = false, EvalTemperature, polRng
	out := make([]ResiliencePoint, 0, len(rates))
	for ri, rate := range rates {
		var rd, hd, pd, md []float64
		for i := 0; i < runs; i++ {
			base := seed + int64(ri*1000+i)
			var plan *sim.FaultPlan
			if rate > 0 {
				plan = sim.GeneratePlan(base+104729, plat.Size(), sim.SpecForRate(rate, horizon))
			}
			run := func(pol sim.Policy) (float64, bool) {
				rng.Seed(base)
				res, err := runner.Simulate(g, plat, tt, pol, sim.Options{Sigma: sigma, Rng: rng, Faults: plan})
				if err != nil {
					return 0, false
				}
				return res.Makespan, true
			}
			polRng.Seed(base + 7919)
			if m, ok := run(pol); ok {
				rd = append(rd, m)
			}
			if m, ok := run(sched.NewStaticPolicy(heft)); ok {
				hd = append(hd, m)
			}
			if m, ok := run(sched.NewReplanHEFTPolicy()); ok {
				pd = append(pd, m)
			}
			if m, ok := run(sched.MCTPolicy{}); ok {
				md = append(md, m)
			}
		}
		out = append(out, ResiliencePoint{
			Rate:       rate,
			READYS:     Summarise(rd),
			HEFT:       Summarise(hd),
			ReplanHEFT: Summarise(pd),
			MCT:        Summarise(md),
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
	return out
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
// paper's main platform) at mild duration noise, loading (or training) the
// default agent from modelsDir.
func ResilienceFigure(modelsDir string) (*Table, error) {
	spec := DefaultAgentSpec(taskgraph.Cholesky, 8, 2, 2)
	agent, err := LoadOrTrain(spec, modelsDir, EpisodesFor(taskgraph.Cholesky, 8))
	if err != nil {
		return nil, fmt.Errorf("exp: resilience figure %s: %w", spec.Name(), err)
	}
	pts := ResilienceSweep(agent, taskgraph.Cholesky, 8, 2, 2, 0.1, FaultRates, EvalRuns, 47)
	return ResilienceTable(pts, taskgraph.Cholesky, 8, 2, 2, 0.1), nil
}
