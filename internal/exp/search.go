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

// evaluateGreedy returns the mean makespan of the agent's argmax policy on
// the spec's own problem.
func evaluateGreedy(agent *core.Agent, spec AgentSpec, runs int, seed int64) (float64, error) {
	ms, err := newEvaluator().makespans(spec.Problem(), []scheduler{{"READYS (argmax)", core.NewPolicy(agent)}}, 0, runs, seed)
	if err != nil {
		return 0, err
	}
	return Summarise(ms[0]).Mean, nil
}
