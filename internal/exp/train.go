package exp

import (
	"fmt"
	"os"
	"strconv"

	"readys/internal/core"
	"readys/internal/obs"
	"readys/internal/rl"
	"readys/internal/sim"
)

// TrainOptions parameterise TrainAgentWith beyond the spec itself.
type TrainOptions struct {
	// Episodes is the training budget.
	Episodes int
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

// TrainAgent trains a fresh agent for the spec with the given episode budget
// and saves its checkpoint under dir. Progress, if non-nil, receives episode
// statistics.
func TrainAgent(spec AgentSpec, dir string, episodes int, progress func(rl.EpisodeStats)) (*core.Agent, rl.History, error) {
	return TrainAgentWith(spec, dir, TrainOptions{Episodes: episodes, Progress: progress})
}

// TrainAgentWith is TrainAgent with a full option set, including a structured
// telemetry sink. A budget below one episode is an error.
func TrainAgentWith(spec AgentSpec, dir string, opt TrainOptions) (*core.Agent, rl.History, error) {
	if err := CheckCount("episodes", opt.Episodes, 1); err != nil {
		return nil, rl.History{}, fmt.Errorf("exp: training %s: %w", spec.Name(), err)
	}
	agent := core.NewAgent(spec.AgentConfig())
	cfg := rl.DefaultConfig()
	cfg.Episodes = opt.Episodes
	cfg.Seed = spec.Seed
	cfg.RolloutWorkers = opt.Workers
	cfg.Faults = opt.Faults
	trainer := rl.NewTrainer(agent, spec.Problem(), cfg)
	trainer.Telemetry = opt.Telemetry
	hist, err := trainer.Run(opt.Progress)
	if err != nil {
		return nil, hist, fmt.Errorf("exp: training %s: %w", spec.Name(), err)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, hist, err
		}
		meta := map[string]string{
			"kind":              spec.Kind.String(),
			"T":                 strconv.Itoa(spec.T),
			"cpus":              strconv.Itoa(spec.NumCPU),
			"gpus":              strconv.Itoa(spec.NumGPU),
			"sigma_train":       fmt.Sprintf("%g", spec.SigmaTrain),
			"episodes":          strconv.Itoa(opt.Episodes),
			"final_mean_reward": fmt.Sprintf("%.4f", hist.FinalMeanReward(100)),
		}
		if err := agent.SaveCheckpoint(spec.ModelPath(dir), meta); err != nil {
			return nil, hist, fmt.Errorf("exp: saving %s: %w", spec.Name(), err)
		}
	}
	return agent, hist, nil
}

// LoadAgent restores a trained agent for the spec from dir.
func LoadAgent(spec AgentSpec, dir string) (*core.Agent, error) {
	agent := core.NewAgent(spec.AgentConfig())
	if _, err := agent.LoadCheckpoint(spec.ModelPath(dir)); err != nil {
		return nil, err
	}
	return agent, nil
}

// LoadOrTrain restores the spec's checkpoint if present, otherwise trains it
// with the given episode budget (and caches the result when dir is non-empty).
func LoadOrTrain(spec AgentSpec, dir string, episodes int) (*core.Agent, error) {
	if dir != "" {
		if _, err := os.Stat(spec.ModelPath(dir)); err == nil {
			return LoadAgent(spec, dir)
		}
	}
	agent, _, err := TrainAgent(spec, dir, episodes, nil)
	return agent, err
}

// DefaultModelsDir resolves the model cache directory: $READYS_MODELS_DIR or
// "models".
func DefaultModelsDir() string {
	if d := os.Getenv("READYS_MODELS_DIR"); d != "" {
		return d
	}
	return "models"
}
