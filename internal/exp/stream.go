package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

// Stream benchmark: online multi-tenant scheduling of Poisson job arrivals on
// a persistent 2 CPU + 2 GPU cluster. Where the single-DAG figures score
// makespan, this sweep scores what multi-tenant systems are judged on — job
// response time (mean and p99), slowdown against an isolated HEFT run and
// cluster utilization — across offered-load factors, with one operating point
// under mid-stream fault injection.

// StreamKinds and StreamSizes define the job mix of the stream benchmark:
// two DAG families at two sizes, drawn uniformly per arrival.
var (
	StreamKinds = []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU}
	StreamSizes = []int{2, 3}
)

// StreamCase is one sweep row: an offered-load factor and a fault rate.
// Load is normalised so that 1.0 means the mean interarrival gap equals the
// mean isolated HEFT makespan of the job mix — jobs arrive exactly as fast as
// a dedicated cluster could serve them one at a time, so a multi-resource
// cluster runs moderately loaded and anything above queues aggressively.
type StreamCase struct {
	Load      float64
	FaultRate float64
}

// DefaultStreamCases sweeps three load factors fault-free plus the unit-load
// point under fault rate 1 (one disruption of each kind per resource across
// the arrival window; see sim.SpecForRate).
func DefaultStreamCases() []StreamCase {
	return []StreamCase{{Load: 0.5}, {Load: 1}, {Load: 2}, {Load: 1, FaultRate: 1}}
}

// StreamStats summarises one policy at one sweep row across the run seeds.
type StreamStats struct {
	MeanResponse Summary // per-run mean job response (ms)
	P99Response  Summary // per-run p99 job response (ms)
	MeanSlowdown Summary // per-run mean slowdown vs isolated HEFT
	Utilization  Summary // per-run cluster utilization ∈ [0, 1]
}

// StreamPoint is one row of the stream sweep.
type StreamPoint struct {
	Load      float64
	FaultRate float64
	// RateJobsPerSec is the concrete arrival intensity the load maps to.
	RateJobsPerSec float64
	READYS         StreamStats
	HEFTPerJob     StreamStats
	ReplanHEFT     StreamStats
	MCT            StreamStats
}

// meanIsolatedMakespan averages the noise-free HEFT projection over the job
// mix — the normaliser that turns a load factor into an arrival rate.
func meanIsolatedMakespan(plat platform.Platform, kinds []taskgraph.Kind, sizes []int) float64 {
	var sum float64
	var n int
	for _, k := range kinds {
		tt := platform.TimingFor(k)
		for _, s := range sizes {
			sum += sched.HEFT(taskgraph.NewByKind(k, s), plat, tt).Makespan
			n++
		}
	}
	return sum / float64(n)
}

// StreamSweep benchmarks the agent against HEFT-per-job, re-planning HEFT and
// MCT on streaming arrivals. The comparison is paired, mirroring
// ResilienceSweep: at each (case, run) every policy replays the same arrival
// list (drawn from the run's base seed + 13), the same fault plan and the same
// duration draw for every (task, attempt) it starts, so differences isolate
// scheduling behaviour. Jobs per stream and runs per row are configurable; a
// run that fails, or whose arrivals cannot be generated, fails the sweep.
func StreamSweep(agent *core.Agent, numCPU, numGPU int, kinds []taskgraph.Kind, sizes []int, sigma float64, cases []StreamCase, jobs, runs int, seed int64) ([]StreamPoint, error) {
	plat := platform.New(numCPU, numGPU)
	isolated := meanIsolatedMakespan(plat, kinds, sizes)
	e := newEvaluator()
	scheds := []scheduler{
		{"READYS", core.NewPolicy(agent)},
		{"HEFT-per-job", stream.NewHEFTPerJobPolicy()},
		{"ReplanHEFT", sched.NewReplanHEFTPolicy()},
		{"MCT", sched.MCTPolicy{}},
	}

	out := make([]StreamPoint, 0, len(cases))
	for _, sc := range cases {
		rate := sc.Load * 1000 / isolated // jobs per second of simulated time
		cfg := stream.Config{Platform: plat, Sigma: sigma, Rng: e.rng}
		type agg struct{ resp, p99, slow, util []float64 }
		aggs := make([]agg, len(scheds))
		err := e.each(scheds, runs, seed, func(base int64) error {
			arrivals, err := stream.PoissonProcess{
				Rate: rate, Jobs: jobs, Kinds: kinds, Sizes: sizes,
			}.Generate(rand.New(rand.NewSource(base + 13)))
			if err != nil {
				return err
			}
			cfg.Arrivals, cfg.Faults = arrivals, nil
			if sc.FaultRate > 0 {
				horizon := arrivals[len(arrivals)-1].At + float64(core.FaultHorizonFactor*isolated)
				cfg.Faults = sim.GeneratePlan(sim.PlanSeed(base), plat.Size(), sim.SpecForRate(sc.FaultRate, horizon))
			}
			return nil
		}, func(s int) error {
			res, err := stream.Run(scheds[s].pol, cfg)
			if err != nil {
				return err
			}
			a := &aggs[s]
			a.resp = append(a.resp, res.MeanResponse)
			a.p99 = append(a.p99, res.P99Response)
			a.slow = append(a.slow, res.MeanSlowdown)
			a.util = append(a.util, res.Utilization)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("exp: stream at load %g, fault rate %g: %w", sc.Load, sc.FaultRate, err)
		}
		sum := func(a agg) StreamStats {
			return StreamStats{
				MeanResponse: Summarise(a.resp),
				P99Response:  Summarise(a.p99),
				MeanSlowdown: Summarise(a.slow),
				Utilization:  Summarise(a.util),
			}
		}
		out = append(out, StreamPoint{
			Load: sc.Load, FaultRate: sc.FaultRate, RateJobsPerSec: rate,
			READYS: sum(aggs[0]), HEFTPerJob: sum(aggs[1]), ReplanHEFT: sum(aggs[2]), MCT: sum(aggs[3]),
		})
	}
	return out, nil
}

// StreamTable renders a stream sweep as the benchmark's figure table.
func StreamTable(points []StreamPoint, numCPU, numGPU, jobs int, sigma float64, kinds []taskgraph.Kind, sizes []int) *Table {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	tab := &Table{
		Title: fmt.Sprintf("Online scheduling: job response time vs offered load (%s, sizes %v, %d jobs/stream, %dCPU+%dGPU, sigma=%g)",
			strings.Join(names, "+"), sizes, jobs, numCPU, numGPU, sigma),
		Header: []string{"load", "rate_jobs_per_s", "fault_rate",
			"readys_resp_ms", "readys_p99_ms", "readys_slowdown", "readys_util",
			"heft_job_resp_ms", "heft_job_p99_ms", "heft_job_slowdown", "heft_job_util",
			"replan_heft_resp_ms", "replan_heft_p99_ms", "replan_heft_slowdown", "replan_heft_util",
			"mct_resp_ms", "mct_p99_ms", "mct_slowdown", "mct_util"},
	}
	for _, pt := range points {
		cols := []string{F(pt.Load), F(pt.RateJobsPerSec), F(pt.FaultRate)}
		for _, st := range []StreamStats{pt.READYS, pt.HEFTPerJob, pt.ReplanHEFT, pt.MCT} {
			cols = append(cols, F(st.MeanResponse.Mean), F(st.P99Response.Mean), F(st.MeanSlowdown.Mean), F(st.Utilization.Mean))
		}
		tab.AddRow(cols...)
	}
	return tab
}

// StreamRecipe is the stream agent's recipe: READYS trained directly on
// arrival streams (rl.Config.Arrivals) rather than on a single DAG, with the
// default architecture on 2 CPUs + 2 GPUs at σ 0.1. It trains on streams of
// five arrivals of the benchmark job mix at unit load — short enough to keep
// episodes affordable, long enough to overlap several jobs — for 8 000
// episodes, around where the policy reaches HEFT-per-job parity on mean
// response.
func StreamRecipe() Recipe {
	isolated := meanIsolatedMakespan(platform.New(2, 2), StreamKinds, StreamSizes)
	return Recipe{
		Spec:     DefaultAgentSpec(0, 0, 2, 2), // no kind or T: the mix is the problem
		Episodes: 8000,
		Arrivals: &stream.PoissonProcess{
			Rate: 1000 / isolated, Jobs: 5,
			Kinds: StreamKinds, Sizes: StreamSizes,
		},
	}
}

// StreamFigure regenerates the stream benchmark end-to-end on the reference
// platform (2 CPUs + 2 GPUs) at mild duration noise with the committed
// stream agent from modelsDir; a missing checkpoint is an error.
func StreamFigure(modelsDir string) (*Table, error) {
	agent, err := StreamRecipe().Load(modelsDir)
	if err != nil {
		return nil, fmt.Errorf("exp: stream figure: %w", err)
	}
	const jobs = 12
	pts, err := StreamSweep(agent, 2, 2, StreamKinds, StreamSizes, 0.1, DefaultStreamCases(), jobs, EvalRuns, 53)
	if err != nil {
		return nil, err
	}
	return StreamTable(pts, 2, 2, jobs, 0.1, StreamKinds, StreamSizes), nil
}
