package exp

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/rl"
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
// list, the same fault plan and the same duration-noise seed, so differences
// isolate scheduling behaviour. Jobs per stream and runs per row are
// configurable; a policy failing a run contributes no sample.
func StreamSweep(agent *core.Agent, numCPU, numGPU int, kinds []taskgraph.Kind, sizes []int, sigma float64, cases []StreamCase, jobs, runs int, seed int64) []StreamPoint {
	plat := platform.New(numCPU, numGPU)
	isolated := meanIsolatedMakespan(plat, kinds, sizes)
	pol := core.NewPolicy(agent)
	pol.Greedy, pol.Temperature, pol.Rng = false, EvalTemperature, rand.New(rand.NewSource(seed))

	out := make([]StreamPoint, 0, len(cases))
	for ci, sc := range cases {
		rate := sc.Load * 1000 / isolated // jobs per second of simulated time
		type agg struct{ resp, p99, slow, util []float64 }
		var ra, ha, pa, ma agg
		for i := 0; i < runs; i++ {
			base := seed + int64(ci*1000+i)
			arrivals, err := stream.PoissonProcess{
				Rate: rate, Jobs: jobs, Kinds: kinds, Sizes: sizes,
			}.Generate(rand.New(rand.NewSource(base + 13)))
			if err != nil {
				continue
			}
			var plan *sim.FaultPlan
			if sc.FaultRate > 0 {
				horizon := arrivals[len(arrivals)-1].At + float64(core.FaultHorizonFactor*isolated)
				plan = sim.GeneratePlan(base+104729, plat.Size(), sim.SpecForRate(sc.FaultRate, horizon))
			}
			run := func(pol sim.Policy, a *agg) {
				res, err := stream.Run(pol, stream.Config{
					Platform: plat, Arrivals: arrivals, Sigma: sigma,
					Faults: plan, Rng: rand.New(rand.NewSource(base)),
				})
				if err != nil {
					return
				}
				a.resp = append(a.resp, res.MeanResponse)
				a.p99 = append(a.p99, res.P99Response)
				a.slow = append(a.slow, res.MeanSlowdown)
				a.util = append(a.util, res.Utilization)
			}
			pol.Rng.Seed(base + 7919)
			run(pol, &ra)
			run(stream.NewHEFTPerJobPolicy(), &ha)
			run(sched.NewReplanHEFTPolicy(), &pa)
			run(sched.MCTPolicy{}, &ma)
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
			READYS: sum(ra), HEFTPerJob: sum(ha), ReplanHEFT: sum(pa), MCT: sum(ma),
		})
	}
	return out
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

// Stream agent: READYS trained directly on arrival streams (rl.Config.Arrivals)
// rather than on a single DAG. The checkpoint is named outside the AgentSpec
// scheme because its identity is the job mix, not one (kind, T) combination.

// StreamTrainJobs is the number of arrivals per training episode; streams this
// short keep episodes affordable while still overlapping several jobs.
const StreamTrainJobs = 5

// StreamTrainEpisodes is the default stream-training budget: the policy
// reaches HEFT-per-job parity on mean response around here (~2 minutes on a
// single laptop core).
const StreamTrainEpisodes = 8000

// streamAgentName identifies the stream-trained checkpoint for the benchmark
// platform and the default architecture.
const streamAgentName = "readys_stream_mix_2c2g_w2_l2_h32"

// StreamAgentPath returns the stream-trained checkpoint path inside dir.
func StreamAgentPath(dir string) string { return filepath.Join(dir, streamAgentName+".json") }

// StreamTrainProcess is the arrival process used for stream training: the
// benchmark job mix at unit load on the benchmark platform.
func StreamTrainProcess() stream.PoissonProcess {
	isolated := meanIsolatedMakespan(platform.New(2, 2), StreamKinds, StreamSizes)
	return stream.PoissonProcess{
		Rate: 1000 / isolated, Jobs: StreamTrainJobs,
		Kinds: StreamKinds, Sizes: StreamSizes,
	}
}

// TrainStreamAgent trains a fresh default-architecture agent on arrival
// streams (see rl.Config.Arrivals) and saves its checkpoint under dir.
func TrainStreamAgent(dir string, episodes, workers int, progress func(rl.EpisodeStats)) (*core.Agent, rl.History, error) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	proc := StreamTrainProcess()
	cfg := rl.DefaultConfig()
	cfg.Episodes = episodes
	cfg.RolloutWorkers = workers
	cfg.Arrivals = &proc
	problem := core.Problem{Platform: platform.New(2, 2), Sigma: 0.1}
	trainer := rl.NewTrainer(agent, problem, cfg)
	hist, err := trainer.Run(progress)
	if err != nil {
		return nil, hist, fmt.Errorf("exp: stream training: %w", err)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, hist, err
		}
		sizes := make([]string, len(StreamSizes))
		for i, s := range StreamSizes {
			sizes[i] = strconv.Itoa(s)
		}
		meta := map[string]string{
			"stream":            "1",
			"kinds":             "cholesky,lu",
			"sizes":             strings.Join(sizes, ","),
			"rate_jobs_per_s":   fmt.Sprintf("%g", proc.Rate),
			"jobs_per_episode":  strconv.Itoa(proc.Jobs),
			"episodes":          strconv.Itoa(episodes),
			"final_mean_reward": fmt.Sprintf("%.4f", hist.FinalMeanReward(100)),
		}
		if err := agent.SaveCheckpoint(StreamAgentPath(dir), meta); err != nil {
			return nil, hist, fmt.Errorf("exp: saving stream agent: %w", err)
		}
	}
	return agent, hist, nil
}

// LoadOrTrainStreamAgent restores the stream-trained checkpoint if present,
// otherwise trains it with the given episode budget.
func LoadOrTrainStreamAgent(dir string, episodes int) (*core.Agent, error) {
	if dir != "" {
		if _, err := os.Stat(StreamAgentPath(dir)); err == nil {
			agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
			if _, err := agent.LoadCheckpoint(StreamAgentPath(dir)); err != nil {
				return nil, err
			}
			return agent, nil
		}
	}
	agent, _, err := TrainStreamAgent(dir, episodes, 0, nil)
	return agent, err
}

// StreamFigure regenerates the stream benchmark end-to-end on the reference
// platform (2 CPUs + 2 GPUs) at mild duration noise, loading (or training)
// the stream-trained agent from modelsDir.
func StreamFigure(modelsDir string) (*Table, error) {
	agent, err := LoadOrTrainStreamAgent(modelsDir, StreamTrainEpisodes)
	if err != nil {
		return nil, fmt.Errorf("exp: stream figure: %w", err)
	}
	const jobs = 12
	pts := StreamSweep(agent, 2, 2, StreamKinds, StreamSizes, 0.1, DefaultStreamCases(), jobs, EvalRuns, 53)
	return StreamTable(pts, 2, 2, jobs, 0.1, StreamKinds, StreamSizes), nil
}
