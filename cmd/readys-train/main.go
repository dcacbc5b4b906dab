// readys-train trains a READYS agent on one (kernel, size, platform)
// combination, or on streaming arrivals, and saves its checkpoint; with
// -all it trains every committed checkpoint's recipe (exp.Recipes). A
// combination listed there trains on its recipe's budget unless -episodes
// says otherwise; any other combination needs -episodes. -all and -stream
// refuse the flags they do not read (exp.CheckTrainFlags).
//
// Usage:
//
//	readys-train -kind cholesky -T 8 -cpus 2 -gpus 2 -out models
//	readys-train -kind cholesky -T 3 -cpus 1 -gpus 1 -episodes 500 -out runs
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
		episodes  = flag.Int("episodes", 0, "training episodes (0 = the recipe's budget, which a combination outside exp.Recipes does not have)")
		out       = flag.String("out", exp.DefaultModelsDir(), "model output directory")
		all       = flag.Bool("all", false, "train every committed checkpoint's recipe (exp.Recipes), skipping those in -out")
		streaming = flag.Bool("stream", false, "train the stream agent's recipe on streaming job arrivals (mixed-family Poisson streams; see exp.StreamRecipe)")
		window    = flag.Int("window", 2, "sub-DAG window depth w")
		layers    = flag.Int("layers", 2, "number of GCN layers g")
		hidden    = flag.Int("hidden", 32, "embedding width")
		seed      = flag.Int64("seed", 1, "training seed")
		quiet     = flag.Bool("quiet", false, "suppress per-interval progress")
		telemetry = flag.String("telemetry", "", "write per-episode training stats as JSON lines to this file (with -all, one file per agent named after it)")
		workers   = flag.Int("workers", 0, "concurrent episode rollouts per batch, beside the update, which takes each episode as soon as it is in (0 = GOMAXPROCS); W workers record into W+1 episode logs, each free again once its episode is taken; results are identical at any value")
		faultRate = flag.Float64("fault-rate", 0, "train under per-episode fault injection at this rate (0 = fault-free; see sim.SpecForRate)")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := exp.CheckTrainFlags(*all, *streaming, set); err != nil {
		log.Fatal(err)
	}
	for _, c := range []struct {
		flag     string
		n, least int
	}{{"-episodes", *episodes, 0}, {"-workers", *workers, 0}, {"-window", *window, 0}, {"-layers", *layers, 0}, {"-hidden", *hidden, 1}} {
		if err := exp.CheckCount(c.flag, c.n, c.least); err != nil {
			log.Fatal(err)
		}
	}
	if err := exp.CheckProblem(*tiles, *cpus, *gpus, 0); err != nil {
		log.Fatal(err)
	}
	if err := exp.CheckFaultRate(*faultRate); err != nil {
		log.Fatal(err)
	}

	if *all {
		for _, r := range exp.Recipes() {
			if err := trainOne(r, *out, *quiet, perAgentTelemetry(*telemetry, r), *workers, 0); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	r := exp.StreamRecipe()
	if !*streaming {
		kind, err := taskgraph.KindFromString(*kindStr)
		if err != nil {
			log.Fatal(err)
		}
		spec := exp.DefaultAgentSpec(kind, *tiles, *cpus, *gpus)
		spec.Window, spec.Layers, spec.Hidden, spec.Seed = *window, *layers, *hidden, *seed
		r = exp.RecipeFor(spec)
	}
	if *episodes > 0 {
		r.Episodes = *episodes
	}
	if r.Episodes == 0 {
		log.Fatalf("%s has no recipe in exp.Recipes: give its budget with -episodes", r.Name())
	}
	if err := trainOne(r, *out, *quiet, *telemetry, *workers, *faultRate); err != nil {
		log.Fatal(err)
	}
}

// trainOne trains the recipe and saves its checkpoint under dir. An existing
// checkpoint is skipped, so -all is resumable.
func trainOne(r exp.Recipe, dir string, quiet bool, telemetryPath string, workers int, faultRate float64) error {
	if _, err := os.Stat(r.Path(dir)); err == nil {
		fmt.Printf("%s: checkpoint exists, skipping\n", r.Name())
		return nil
	}
	fmt.Printf("training %s for %d episodes...\n", r.Name(), r.Episodes)
	start := time.Now()
	interval := r.Episodes / 10
	if interval == 0 {
		interval = 1
	}
	opt := exp.TrainOptions{
		Workers: workers,
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
	_, hist, err := exp.Train(r, dir, opt)
	if err != nil {
		return err
	}
	if opt.Telemetry != nil {
		if err := opt.Telemetry.Flush(); err != nil {
			return err
		}
		fmt.Printf("  telemetry → %s\n", telemetryPath)
	}
	fmt.Printf("done in %s: ", cost(start, r.Episodes))
	if hist.BaselineMakespan > 0 { // a stream's baselines are per episode
		fmt.Printf("HEFT baseline %.1f, ", hist.BaselineMakespan)
	}
	fmt.Printf("final mean reward %+.3f → %s\n", hist.FinalMeanReward(100), r.Path(dir))
	return nil
}

// cost renders the wall-clock time since start and its share per episode,
// e.g. "6.49 s, 32.4 ms/episode".
func cost(start time.Time, episodes int) string {
	d := time.Since(start)
	return fmt.Sprintf("%.2f s, %.1f ms/episode", d.Seconds(), d.Seconds()*1000/float64(episodes))
}

// perAgentTelemetry derives a per-agent JSONL path from the -telemetry flag
// so -all runs don't interleave every agent's stream into one file:
// "runs/train.jsonl" becomes "runs/train_<spec name>.jsonl".
func perAgentTelemetry(path string, r exp.Recipe) string {
	if path == "" {
		return ""
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "_" + r.Name() + ext
}
