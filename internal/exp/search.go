package exp

import (
	"readys/internal/core"
	"readys/internal/rl"
)

// trainWithOverrides trains a fresh agent for the spec with an explicit
// entropy coefficient and unroll length (used by the random search; no
// checkpoint is written).
func trainWithOverrides(spec AgentSpec, episodes int, entropyBeta float64, unroll int) (*core.Agent, rl.History, error) {
	agent := core.NewAgent(spec.AgentConfig())
	cfg := rl.DefaultConfig()
	cfg.Episodes = episodes
	cfg.Seed = spec.Seed
	cfg.EntropyBeta = entropyBeta
	cfg.Unroll = unroll
	hist, err := rl.NewTrainer(agent, spec.Problem(), cfg).Run(nil)
	return agent, hist, err
}
