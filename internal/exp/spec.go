// Package exp is the experiment harness: it trains and caches READYS agents
// for every (kernel, size, platform) combination the paper evaluates,
// compares them against HEFT and MCT across noise levels, and regenerates the
// data behind every figure of the evaluation section (§V):
//
//	Figure 3   — READYS vs HEFT and MCT, kernels × sizes × σ, 2 CPUs + 2 GPUs
//	Figures 4-6 — transfer learning: train on T∈{4,6,8}, test on T∈{10,12}
//	              on 4 CPUs, 2 CPUs + 2 GPUs, and 4 GPUs
//	Figure 7   — inference time per scheduling decision vs window size
package exp

import (
	"fmt"
	"path/filepath"

	"readys/internal/core"
	"readys/internal/taskgraph"
)

// AgentSpec identifies one trained agent: the problem combination it was
// trained on plus its architecture.
type AgentSpec struct {
	Kind   taskgraph.Kind
	T      int
	NumCPU int
	NumGPU int
	// SigmaTrain is the duration-noise level used during training. The
	// harness trains at a mild σ=0.1 and evaluates across the whole σ sweep;
	// training with a little noise regularises the policy and keeps one
	// agent per combination affordable (documented in EXPERIMENTS.md).
	SigmaTrain float64
	Window     int
	Layers     int
	Hidden     int
	Seed       int64
}

// DefaultAgentSpec returns the spec used throughout the harness for a
// problem combination: the paper's best hyper-parameter region (w=2, g=2).
func DefaultAgentSpec(kind taskgraph.Kind, T, numCPU, numGPU int) AgentSpec {
	return AgentSpec{
		Kind: kind, T: T, NumCPU: numCPU, NumGPU: numGPU,
		SigmaTrain: 0.1,
		Window:     2, Layers: 2, Hidden: 32,
		Seed: 1,
	}
}

// Name returns the canonical, filesystem-safe name of the spec.
func (s AgentSpec) Name() string {
	return fmt.Sprintf("readys_%s_T%d_%dc%dg_w%d_l%d_h%d",
		s.Kind, s.T, s.NumCPU, s.NumGPU, s.Window, s.Layers, s.Hidden)
}

// ModelPath returns the checkpoint path of the spec inside dir.
func (s AgentSpec) ModelPath(dir string) string {
	return filepath.Join(dir, s.Name()+".json")
}

// Problem returns the training problem of the spec.
func (s AgentSpec) Problem() core.Problem {
	return core.NewProblem(s.Kind, s.T, s.NumCPU, s.NumGPU, s.SigmaTrain)
}

// AgentConfig returns the architecture config of the spec.
func (s AgentSpec) AgentConfig() core.Config {
	return core.Config{Window: s.Window, Layers: s.Layers, Hidden: s.Hidden, Seed: s.Seed}
}

// EpisodesFor scales the training budget inversely with the DAG size: larger
// problems have more decisions (and therefore more gradient signal) per
// episode, and cost proportionally more wall-clock per episode. The schedule
// keeps every combination trainable on a single laptop core, in the spirit of
// the paper's "approximately 20 minutes on a standard laptop".
func EpisodesFor(kind taskgraph.Kind, T int) int {
	n := taskgraph.NumTasksFor(kind, T)
	ep := 300000 / n
	if ep > 8000 {
		ep = 8000
	}
	if ep < 1200 {
		ep = 1200
	}
	return ep
}
