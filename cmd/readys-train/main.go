// readys-train trains a READYS agent on one (kernel, size, platform)
// combination and saves its checkpoint, or — with -all — trains every agent
// the paper's figures need.
//
// Usage:
//
//	readys-train -kind cholesky -T 8 -cpus 2 -gpus 2 -episodes 2500 -out models
//	readys-train -all -out models
//	readys-train -stream -episodes 600 -out models
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"readys/internal/exp"
	"readys/internal/obs"
	"readys/internal/rl"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

func main() {
	var (
		kindStr   = flag.String("kind", "cholesky", "DAG family: cholesky, lu or qr")
		tiles     = flag.Int("T", 4, "tile count per matrix dimension")
		cpus      = flag.Int("cpus", 2, "number of CPUs")
		gpus      = flag.Int("gpus", 2, "number of GPUs")
		episodes  = flag.Int("episodes", 0, "training episodes (0 = size-scaled default)")
		out       = flag.String("out", exp.DefaultModelsDir(), "model output directory")
		all       = flag.Bool("all", false, "train every agent needed by the paper's figures")
		streaming = flag.Bool("stream", false, "train on streaming job arrivals (mixed-family Poisson streams; see exp.TrainStreamAgent)")
		window    = flag.Int("window", 2, "sub-DAG window depth w")
		layers    = flag.Int("layers", 2, "number of GCN layers g")
		hidden    = flag.Int("hidden", 32, "embedding width")
		seed      = flag.Int64("seed", 1, "training seed")
		quiet     = flag.Bool("quiet", false, "suppress per-interval progress")
		telemetry = flag.String("telemetry", "", "write per-episode training stats as JSON lines to this file (with -all, one file per agent named after it)")
		workers   = flag.Int("workers", 0, "concurrent episode rollouts per batch (0 = GOMAXPROCS); results are identical at any value")
		faultRate = flag.Float64("fault-rate", 0, "train under per-episode fault injection at this rate (0 = fault-free; see sim.SpecForRate)")
	)
	flag.Parse()
	if err := exp.CheckProblem(*tiles, *cpus, *gpus, 0); err != nil {
		log.Fatal(err)
	}

	if *all {
		if err := trainAll(*out, *quiet, *telemetry, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *streaming {
		eps := *episodes
		if eps == 0 {
			eps = exp.StreamTrainEpisodes
		}
		if err := trainStream(*out, eps, *quiet, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}

	kind, err := taskgraph.KindFromString(*kindStr)
	if err != nil {
		log.Fatal(err)
	}
	spec := exp.DefaultAgentSpec(kind, *tiles, *cpus, *gpus)
	spec.Window, spec.Layers, spec.Hidden, spec.Seed = *window, *layers, *hidden, *seed
	eps := *episodes
	if eps == 0 {
		eps = exp.EpisodesFor(kind, *tiles)
	}
	if err := trainOne(spec, *out, eps, *quiet, *telemetry, *workers, *faultRate); err != nil {
		log.Fatal(err)
	}
}

func trainOne(spec exp.AgentSpec, dir string, episodes int, quiet bool, telemetryPath string, workers int, faultRate float64) error {
	if _, err := os.Stat(spec.ModelPath(dir)); err == nil {
		fmt.Printf("%s: checkpoint exists, skipping\n", spec.Name())
		return nil
	}
	fmt.Printf("training %s for %d episodes...\n", spec.Name(), episodes)
	start := time.Now()
	interval := episodes / 10
	if interval == 0 {
		interval = 1
	}
	opt := exp.TrainOptions{
		Episodes: episodes,
		Workers:  workers,
		// Horizon 0: each episode defaults it to a multiple of the problem's
		// HEFT projection (see core.Problem.FaultPlanFor).
		Faults: sim.SpecForRate(faultRate, 0),
		Progress: func(st rl.EpisodeStats) {
			if !quiet && st.Episode%interval == 0 {
				fmt.Printf("  ep %5d  reward %+.3f  makespan %8.1f  entropy %.3f\n",
					st.Episode, st.Reward, st.Makespan, st.Entropy)
			}
		},
	}
	if telemetryPath != "" {
		sink, err := obs.CreateJSONL(telemetryPath)
		if err != nil {
			return err
		}
		defer sink.Close()
		opt.Telemetry = sink
	}
	_, hist, err := exp.TrainAgentWith(spec, dir, opt)
	if err != nil {
		return err
	}
	if opt.Telemetry != nil {
		if err := opt.Telemetry.Flush(); err != nil {
			return err
		}
		fmt.Printf("  telemetry → %s\n", telemetryPath)
	}
	fmt.Printf("done in %s: HEFT baseline %.1f, final mean reward %+.3f → %s\n",
		time.Since(start).Round(time.Second), hist.BaselineMakespan,
		hist.FinalMeanReward(100), spec.ModelPath(dir))
	return nil
}

// trainStream trains the stream benchmark's agent on Poisson arrival streams
// and saves it under exp.StreamAgentPath(dir). Existing checkpoints are
// skipped, matching trainOne.
func trainStream(dir string, episodes int, quiet bool, workers int) error {
	if _, err := os.Stat(exp.StreamAgentPath(dir)); err == nil {
		fmt.Printf("%s: checkpoint exists, skipping\n", exp.StreamAgentPath(dir))
		return nil
	}
	fmt.Printf("training stream agent for %d episodes...\n", episodes)
	start := time.Now()
	interval := episodes / 10
	if interval == 0 {
		interval = 1
	}
	_, hist, err := exp.TrainStreamAgent(dir, episodes, workers, func(st rl.EpisodeStats) {
		if !quiet && st.Episode%interval == 0 {
			fmt.Printf("  ep %5d  reward %+.3f  stream makespan %8.1f  entropy %.3f\n",
				st.Episode, st.Reward, st.Makespan, st.Entropy)
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("done in %s: final mean reward %+.3f → %s\n",
		time.Since(start).Round(time.Second), hist.FinalMeanReward(100), exp.StreamAgentPath(dir))
	return nil
}

// trainAll trains the agents of Figure 3 (three kernels × T∈{2,4,8} on
// 2 CPUs + 2 GPUs) and of the transfer experiments of Figures 4-6 (Cholesky
// T∈{4,6,8} on 4 CPUs, 2 CPUs + 2 GPUs and 4 GPUs). Existing checkpoints are
// skipped, so the command is resumable.
func trainAll(dir string, quiet bool, telemetryPath string, workers int) error {
	var specs []exp.AgentSpec
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		for _, T := range []int{2, 4, 8} {
			specs = append(specs, exp.DefaultAgentSpec(kind, T, 2, 2))
		}
	}
	for _, plat := range [][2]int{{4, 0}, {2, 2}, {0, 4}} {
		for _, T := range []int{4, 6, 8} {
			specs = append(specs, exp.DefaultAgentSpec(taskgraph.Cholesky, T, plat[0], plat[1]))
		}
	}
	seen := map[string]bool{}
	for _, spec := range specs {
		if seen[spec.Name()] {
			continue
		}
		seen[spec.Name()] = true
		if err := trainOne(spec, dir, exp.EpisodesFor(spec.Kind, spec.T), quiet, perAgentTelemetry(telemetryPath, spec), workers, 0); err != nil {
			return err
		}
	}
	return nil
}

// perAgentTelemetry derives a per-agent JSONL path from the -telemetry flag
// so -all runs don't interleave every agent's stream into one file:
// "runs/train.jsonl" becomes "runs/train_<spec name>.jsonl".
func perAgentTelemetry(path string, spec exp.AgentSpec) string {
	if path == "" {
		return ""
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "_" + spec.Name() + ext
}
