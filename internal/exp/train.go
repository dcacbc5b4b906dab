package exp

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"readys/internal/core"
	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/rl"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

// Recipe is how one checkpoint is trained: the spec (problem, architecture,
// training σ and seed), the episode budget and, for the stream agent, the
// arrival process it trains on instead of the spec's DAG.
type Recipe struct {
	Spec     AgentSpec
	Episodes int
	// Arrivals, if non-nil, trains on streams of this process on the spec's
	// platform (rl.Config.Arrivals); the spec's Kind and T are then unused.
	Arrivals *stream.PoissonProcess
}

// Recipes lists the committed checkpoints under models/, one recipe each:
// the agents of Figure 3, those of the transfer Figures 4-6 and the stream
// agent. Each budget is the one its checkpoint's meta records. No one rule
// gives them all: QR T=8 got 4 500 episodes where LU T=8, of the same size,
// got 1 470.
func Recipes() []Recipe {
	c, l, q := taskgraph.Cholesky, taskgraph.LU, taskgraph.QR
	var rs []Recipe
	for _, r := range []struct {
		kind                    taskgraph.Kind
		T, cpus, gpus, episodes int
	}{
		// Figure 3: three kernels × T ∈ {2, 4, 8} on 2 CPUs + 2 GPUs.
		{c, 2, 2, 2, 8000}, {c, 4, 2, 2, 8000}, {c, 8, 2, 2, 2500},
		{l, 2, 2, 2, 8000}, {l, 4, 2, 2, 8000}, {l, 8, 2, 2, 1470},
		{q, 2, 2, 2, 8000}, {q, 4, 2, 2, 8000}, {q, 8, 2, 2, 4500},
		// Figures 4-6: Cholesky T ∈ {4, 6, 8} on 4 CPUs, 2 CPUs + 2 GPUs
		// (T=4 and T=8 are Figure 3's) and 4 GPUs.
		{c, 4, 4, 0, 8000}, {c, 6, 4, 0, 5357}, {c, 8, 4, 0, 2500},
		{c, 6, 2, 2, 5357},
		{c, 4, 0, 4, 8000}, {c, 6, 0, 4, 5357}, {c, 8, 0, 4, 2500},
	} {
		rs = append(rs, Recipe{Spec: DefaultAgentSpec(r.kind, r.T, r.cpus, r.gpus), Episodes: r.episodes})
	}
	return append(rs, StreamRecipe())
}

// RecipeFor returns spec's recipe from Recipes, or, for a spec not listed
// there, a recipe with no budget (Episodes 0).
func RecipeFor(spec AgentSpec) Recipe {
	for _, r := range Recipes() {
		if r.Arrivals == nil && r.Spec == spec {
			return r
		}
	}
	return Recipe{Spec: spec}
}

// Name returns the recipe's checkpoint name: the spec's, or for the stream
// agent one named after the job mix rather than a (kind, T) pair.
func (r Recipe) Name() string {
	s := r.Spec
	if r.Arrivals == nil {
		return s.Name()
	}
	return fmt.Sprintf("readys_stream_mix_%dc%dg_w%d_l%d_h%d", s.NumCPU, s.NumGPU, s.Window, s.Layers, s.Hidden)
}

// Path returns the recipe's checkpoint path inside dir.
func (r Recipe) Path(dir string) string { return filepath.Join(dir, r.Name()+".json") }

// Command returns the readys-train command that writes the recipe's
// checkpoint into dir. A recipe with no budget gets "-episodes N", for the
// caller to choose.
func (r Recipe) Command(dir string) string {
	s := r.Spec
	cmd := "readys-train -stream"
	if r.Arrivals == nil {
		cmd = fmt.Sprintf("readys-train -kind %s -T %d -cpus %d -gpus %d", s.Kind, s.T, s.NumCPU, s.NumGPU)
		if s != DefaultAgentSpec(s.Kind, s.T, s.NumCPU, s.NumGPU) {
			cmd += fmt.Sprintf(" -window %d -layers %d -hidden %d -seed %d", s.Window, s.Layers, s.Hidden, s.Seed)
		}
	}
	if r.Episodes == 0 {
		cmd += " -episodes N"
	}
	return cmd + " -out " + dir
}

// Meta renders the checkpoint meta of the recipe; Train writes it with the
// final mean reward beside it.
func (r Recipe) Meta() map[string]string {
	s := r.Spec
	m := map[string]string{
		"window":   strconv.Itoa(s.Window),
		"layers":   strconv.Itoa(s.Layers),
		"hidden":   strconv.Itoa(s.Hidden),
		"episodes": strconv.Itoa(r.Episodes),
	}
	if p := r.Arrivals; p != nil {
		kinds := make([]string, len(p.Kinds))
		for i, k := range p.Kinds {
			kinds[i] = k.String()
		}
		sizes := make([]string, len(p.Sizes))
		for i, n := range p.Sizes {
			sizes[i] = strconv.Itoa(n)
		}
		m["stream"] = "1"
		m["kinds"] = strings.Join(kinds, ",")
		m["sizes"] = strings.Join(sizes, ",")
		m["rate_jobs_per_s"] = fmt.Sprintf("%g", p.Rate)
		m["jobs_per_episode"] = strconv.Itoa(p.Jobs)
		return m
	}
	m["kind"] = s.Kind.String()
	m["T"] = strconv.Itoa(s.T)
	m["cpus"] = strconv.Itoa(s.NumCPU)
	m["gpus"] = strconv.Itoa(s.NumGPU)
	m["sigma_train"] = fmt.Sprintf("%g", s.SigmaTrain)
	return m
}

// TrainOptions parameterise Train beyond the recipe itself.
type TrainOptions struct {
	// Progress, if non-nil, receives per-episode statistics.
	Progress func(rl.EpisodeStats)
	// Telemetry, if non-nil, receives every EpisodeStats as one JSON line.
	// Attaching a sink never changes the training trajectory.
	Telemetry *obs.JSONL
	// Workers is the number of concurrent episode rollouts per training
	// batch (0 selects GOMAXPROCS). Results are bit-identical at any value;
	// see rl.Config.RolloutWorkers.
	Workers int
	// Faults, if enabled, injects a fresh per-episode fault plan into every
	// training rollout; see rl.Config.Faults.
	Faults sim.FaultSpec
}

// Train trains a fresh agent by the recipe and, when dir is non-empty, saves
// its checkpoint under dir with the recipe's Meta. A budget below one
// episode is an error.
func Train(r Recipe, dir string, opt TrainOptions) (*core.Agent, rl.History, error) {
	if err := CheckCount("episodes", r.Episodes, 1); err != nil {
		return nil, rl.History{}, fmt.Errorf("exp: training %s: %w", r.Name(), err)
	}
	s := r.Spec
	agent := core.NewAgent(s.AgentConfig())
	cfg := rl.DefaultConfig()
	cfg.Episodes = r.Episodes
	cfg.Seed = s.Seed
	cfg.RolloutWorkers = opt.Workers
	cfg.Faults = opt.Faults
	cfg.Arrivals = r.Arrivals
	problem := core.Problem{Platform: platform.New(s.NumCPU, s.NumGPU), Sigma: s.SigmaTrain}
	if r.Arrivals == nil {
		problem = s.Problem()
	}
	trainer := rl.NewTrainer(agent, problem, cfg)
	trainer.Telemetry = opt.Telemetry
	hist, err := trainer.Run(opt.Progress)
	if err != nil {
		return nil, hist, fmt.Errorf("exp: training %s: %w", r.Name(), err)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, hist, err
		}
		meta := r.Meta()
		meta["final_mean_reward"] = fmt.Sprintf("%.4f", hist.FinalMeanReward(100))
		if err := agent.SaveCheckpoint(r.Path(dir), meta); err != nil {
			return nil, hist, fmt.Errorf("exp: saving %s: %w", r.Name(), err)
		}
	}
	return agent, hist, nil
}

// Load restores the recipe's checkpoint from dir. Nothing here trains: a
// missing checkpoint is an error that names the readys-train command that
// makes it.
func (r Recipe) Load(dir string) (*core.Agent, error) {
	agent := core.NewAgent(r.Spec.AgentConfig())
	_, err := agent.LoadCheckpoint(r.Path(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("exp: no checkpoint %s (%s makes it)", r.Path(dir), r.Command(dir))
	}
	if err != nil {
		return nil, err
	}
	return agent, nil
}

// LoadAgent restores spec's checkpoint from dir: Load of RecipeFor(spec).
func LoadAgent(spec AgentSpec, dir string) (*core.Agent, error) {
	return RecipeFor(spec).Load(dir)
}

// DefaultModelsDir resolves the model cache directory: $READYS_MODELS_DIR or
// "models".
func DefaultModelsDir() string {
	if d := os.Getenv("READYS_MODELS_DIR"); d != "" {
		return d
	}
	return "models"
}
