package exp

import (
	"fmt"

	"readys/internal/core"
	"readys/internal/taskgraph"
)

// This file holds the job-sized entry points the fleet's workers execute:
// one evaluation sweep over seeds and σ, and one figure regeneration by
// name. Training's job-sized entry point is TrainAgentWith in train.go.

// EvalSpec identifies one evaluation sweep: which trained agent to use and
// which (kernel, size, platform) problem to compare it against HEFT and MCT
// on, across a σ sweep averaged over runs seeds. Train-vs-test fields are
// separate so transfer experiments (train T=4, test T=12) are one spec.
type EvalSpec struct {
	Agent  AgentSpec      `json:"agent"`
	Kind   taskgraph.Kind `json:"kind"`
	T      int            `json:"t"`
	NumCPU int            `json:"cpus"`
	NumGPU int            `json:"gpus"`
	Sigmas []float64      `json:"sigmas"`
	Runs   int            `json:"runs"`
	Seed   int64          `json:"seed"`
}

// DefaultEvalSpec returns the harness's standard sweep for an agent tested on
// size testT on its own platform: the full σ sweep, EvalRuns seeds, and the
// fixed evaluation seed of Figure 3.
func DefaultEvalSpec(agent AgentSpec, testT int) EvalSpec {
	return EvalSpec{
		Agent: agent,
		Kind:  agent.Kind, T: testT, NumCPU: agent.NumCPU, NumGPU: agent.NumGPU,
		Sigmas: append([]float64(nil), Sigmas...),
		Runs:   EvalRuns,
		Seed:   42,
	}
}

// Validate rejects specs that cannot run.
func (e EvalSpec) Validate() error {
	if e.T < 1 {
		return fmt.Errorf("exp: eval spec: T must be >= 1, got %d", e.T)
	}
	if e.NumCPU+e.NumGPU < 1 {
		return fmt.Errorf("exp: eval spec: platform needs at least one resource")
	}
	if e.Runs < 1 {
		return fmt.Errorf("exp: eval spec: runs must be >= 1, got %d", e.Runs)
	}
	if len(e.Sigmas) == 0 {
		return fmt.Errorf("exp: eval spec: empty sigma sweep")
	}
	return nil
}

// Run executes the sweep: the agent is restored from modelsDir (trained with
// the size-scaled budget if its checkpoint is missing) and compared against
// HEFT and MCT on the spec's test problem.
func (e EvalSpec) Run(modelsDir string) ([]ComparisonPoint, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	agent, err := LoadOrTrain(e.Agent, modelsDir, EpisodesFor(e.Agent.Kind, e.Agent.T))
	if err != nil {
		return nil, fmt.Errorf("exp: eval %s: %w", e.Agent.Name(), err)
	}
	return e.RunWith(agent)
}

// RunWith executes the sweep with an already-loaded agent (used when the
// caller manages checkpoints itself).
func (e EvalSpec) RunWith(agent *core.Agent) ([]ComparisonPoint, error) {
	return Compare(agent, e.Kind, e.T, e.NumCPU, e.NumGPU, e.Sigmas, e.Runs, e.Seed)
}

// FigureNames lists the figure identifiers FigureByName accepts, in paper
// order.
func FigureNames() []string {
	return []string{"figure3", "figure4", "figure5", "figure6", "figure7"}
}

// Figure7Sizes and Figure7Runs are the defaults of the inference-time figure
// (readys-fig -fig 7).
var Figure7Sizes = []int{2, 4, 6, 8, 10, 12}

const Figure7Runs = 10

// FigureByName regenerates one figure's table by identifier. Figures 3-6
// load (or train on demand) their checkpoints from modelsDir; figure7 needs
// no models.
func FigureByName(name, modelsDir string) (*Table, error) {
	switch name {
	case "figure3":
		return Figure3(modelsDir)
	case "figure4":
		return Figure4(modelsDir)
	case "figure5":
		return Figure5(modelsDir)
	case "figure6":
		return Figure6(modelsDir)
	case "figure7":
		tab, _, err := Figure7(Figure7Sizes, Figure7Runs)
		return tab, err
	default:
		return nil, fmt.Errorf("exp: unknown figure %q (want one of %v)", name, FigureNames())
	}
}
