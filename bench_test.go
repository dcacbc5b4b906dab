// Benchmarks regenerating the paper's evaluation artefacts (one benchmark per
// figure; see DESIGN.md §3 for the experiment index). Each figure benchmark
// evaluates trained checkpoints from ./models (READYS_MODELS_DIR overrides)
// and reports the paper's headline metrics with b.ReportMetric:
//
//	vsHEFT@σ=0, vsHEFT@σ=0.5, vsMCT@σ=0, vsMCT@σ=0.5
//
// ratios above 1 mean READYS wins. Figure benchmarks skip when their
// checkpoint is missing — run `go run ./cmd/readys-train -all` once to
// produce all of them (the EXPERIMENTS.md results were generated that way).
package readys_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/platform"
	"readys/internal/rl"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// loadSpec loads the cached checkpoint for a spec or skips the benchmark.
func loadSpec(b *testing.B, spec exp.AgentSpec) *core.Agent {
	b.Helper()
	dir := exp.DefaultModelsDir()
	if _, err := os.Stat(spec.ModelPath(dir)); err != nil {
		b.Skipf("checkpoint %s missing; run `go run ./cmd/readys-train -all`", spec.ModelPath(dir))
	}
	agent, err := exp.LoadAgent(spec, dir)
	if err != nil {
		b.Fatal(err)
	}
	return agent
}

// reportComparison runs the σ∈{0, 0.5} endpoints of a comparison and reports
// the improvement ratios.
func reportComparison(b *testing.B, agent *core.Agent, kind taskgraph.Kind, T, cpus, gpus int) {
	b.Helper()
	pts, err := exp.Compare(agent, kind, T, cpus, gpus, []float64{0, 0.5}, exp.EvalRuns, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(pts[0].ImproveHEFT, "vsHEFT@σ=0")
	b.ReportMetric(pts[1].ImproveHEFT, "vsHEFT@σ=0.5")
	b.ReportMetric(pts[0].ImproveMCT, "vsMCT@σ=0")
	b.ReportMetric(pts[1].ImproveMCT, "vsMCT@σ=0.5")
}

// BenchmarkFigure3 regenerates Figure 3: READYS vs HEFT and MCT on
// 2 CPUs + 2 GPUs for each kernel (columns) and T ∈ {2,4,8} (rows). The
// timed unit is one full evaluation episode of the agent.
func BenchmarkFigure3(b *testing.B) {
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		for _, T := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/T=%d", kind, T), func(b *testing.B) {
				agent := loadSpec(b, exp.DefaultAgentSpec(kind, T, 2, 2))
				prob := core.NewProblem(kind, T, 2, 2, 0.2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prob.Simulate(core.NewPolicy(agent), rand.New(rand.NewSource(int64(i)))); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportComparison(b, agent, kind, T, 2, 2)
			})
		}
	}
}

// benchTransfer regenerates one transfer figure: agents trained on Cholesky
// trainT applied to testT ∈ {10, 12} on the given platform.
func benchTransfer(b *testing.B, cpus, gpus int) {
	for _, trainT := range []int{4, 6, 8} {
		for _, testT := range []int{10, 12} {
			b.Run(fmt.Sprintf("train=%d/test=%d", trainT, testT), func(b *testing.B) {
				agent := loadSpec(b, exp.DefaultAgentSpec(taskgraph.Cholesky, trainT, cpus, gpus))
				prob := core.NewProblem(taskgraph.Cholesky, testT, cpus, gpus, 0.2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prob.Simulate(core.NewPolicy(agent), rand.New(rand.NewSource(int64(i)))); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportComparison(b, agent, taskgraph.Cholesky, testT, cpus, gpus)
			})
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (transfer, 4 CPUs).
func BenchmarkFigure4(b *testing.B) { benchTransfer(b, 4, 0) }

// BenchmarkFigure5 regenerates Figure 5 (transfer, 2 CPUs + 2 GPUs).
func BenchmarkFigure5(b *testing.B) { benchTransfer(b, 2, 2) }

// BenchmarkFigure6 regenerates Figure 6 (transfer, 4 GPUs).
func BenchmarkFigure6(b *testing.B) { benchTransfer(b, 0, 4) }

// BenchmarkFigure7 regenerates Figure 7: the wall-clock inference time of one
// scheduling decision as the DAG (and thus the window) grows. The timed unit
// is a single Agent.Forward; the mean window size is reported as a metric.
func BenchmarkFigure7(b *testing.B) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	for _, T := range []int{2, 4, 6, 8, 10, 12} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			prob := core.NewProblem(taskgraph.Cholesky, T, 2, 2, 0.1)
			// Drive one episode to a mid-execution state and capture an
			// encoded state of typical window size.
			var captured *core.EncodedState
			F := taskgraph.DescendantFeatures(prob.Graph)
			probe := capturePolicy{agent: agent, F: F, capture: &captured, at: prob.Graph.NumTasks() / 2}
			if _, err := prob.Simulate(&probe, rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
			if captured == nil {
				b.Fatal("no state captured")
			}
			b.ReportMetric(float64(len(captured.Nodes)), "window_tasks")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Forward(captured)
			}
		})
	}
}

// capturePolicy runs the agent greedily and snapshots the encoded state of
// the at-th decision.
type capturePolicy struct {
	agent   *core.Agent
	F       [][taskgraph.NumKernels]float64
	capture **core.EncodedState
	at      int
	n       int
}

func (p *capturePolicy) Reset(s *sim.State) {}
func (p *capturePolicy) Decide(s *sim.State, r int) int {
	es := core.EncodeFault(s, r, p.F, p.agent.Cfg.Window, false, false)
	if p.n == p.at && *p.capture == nil {
		*p.capture = es
	}
	p.n++
	fw := p.agent.Forward(es)
	lp := fw.LogProbs.Value.Data[:fw.NumActions]
	a := 0
	for i, v := range lp {
		if v > lp[a] {
			a = i
		}
	}
	if a == fw.IdleIndex && fw.IdleIndex >= 0 {
		return sim.NoTask
	}
	return es.ReadyTasks[a]
}

// BenchmarkTrainingEpisode measures the cost of one A2C training episode
// (rollout + backward + update share) on the paper's main training sizes —
// the "≈20 minutes on a standard laptop" data point of §V-D.
func BenchmarkTrainingEpisode(b *testing.B) {
	for _, T := range []int{4, 8} {
		b.Run(fmt.Sprintf("cholesky/T=%d", T), func(b *testing.B) {
			prob := core.NewProblem(taskgraph.Cholesky, T, 2, 2, 0.1)
			agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
			cfg := rl.DefaultConfig()
			cfg.Episodes = 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				if _, err := rl.NewTrainer(agent, prob, cfg).Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHEFT measures the static heuristic itself (schedule construction).
func BenchmarkHEFT(b *testing.B) {
	for _, T := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("cholesky/T=%d", T), func(b *testing.B) {
			g := taskgraph.NewCholesky(T)
			plat := platform.New(2, 2)
			tt := platform.TimingFor(taskgraph.Cholesky)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.HEFT(g, plat, tt)
			}
		})
	}
}

// BenchmarkMCTEpisode measures a full MCT-scheduled episode.
func BenchmarkMCTEpisode(b *testing.B) {
	for _, T := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("cholesky/T=%d", T), func(b *testing.B) {
			g := taskgraph.NewCholesky(T)
			plat := platform.New(2, 2)
			tt := platform.TimingFor(taskgraph.Cholesky)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Simulate(g, plat, tt, sched.MCTPolicy{},
					sim.Options{Sigma: 0.2, Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIdleAction isolates the ∅ action's contribution (a design
// choice DESIGN.md calls out): the cached Cholesky T=4 agent is evaluated
// with the idle action enabled and disabled; the reported metrics are the
// mean makespans of both variants at σ=0.2.
func BenchmarkAblationIdleAction(b *testing.B) {
	agent := loadSpec(b, exp.DefaultAgentSpec(taskgraph.Cholesky, 4, 2, 2))
	prob := core.NewProblem(taskgraph.Cholesky, 4, 2, 2, 0.2)
	evalMean := func(disable bool) float64 {
		var sum float64
		const runs = 5
		for i := 0; i < runs; i++ {
			pol := core.NewPolicy(agent)
			pol.DisableIdle = disable
			res, err := prob.Simulate(pol, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				b.Fatal(err)
			}
			sum += res.Makespan
		}
		return sum / runs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := core.NewPolicy(agent)
		if _, err := prob.Simulate(pol, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(evalMean(false), "ms_with_idle")
	b.ReportMetric(evalMean(true), "ms_no_idle")
}

// BenchmarkDAGGeneration measures the task-graph generators.
func BenchmarkDAGGeneration(b *testing.B) {
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		b.Run(fmt.Sprintf("%s/T=12", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				taskgraph.NewByKind(kind, 12)
			}
		})
	}
}
