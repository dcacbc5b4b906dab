// Package exp is the experiment harness: it lists the recipe of every READYS
// agent the paper's figures use (Recipes), trains and loads them, compares
// them against HEFT and MCT across noise levels, and regenerates the data
// behind every figure of the evaluation section (§V) from the committed
// checkpoints:
//
//	Figure 3   — READYS vs HEFT and MCT, kernels × sizes × σ, 2 CPUs + 2 GPUs
//	Figures 4-6 — transfer learning: train on T∈{4,6,8}, test on T∈{10,12}
//	              on 4 CPUs, 2 CPUs + 2 GPUs, and 4 GPUs
//	Figure 7   — inference time per scheduling decision vs window size
package exp

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"

	"readys/internal/core"
	"readys/internal/taskgraph"
)

// CheckProblem refuses the sizes no problem can be built from: T < 1 tiles,
// a negative resource count, a platform with no resource, or a noise level σ
// that is not a finite number >= 0. The commands call it before they build
// anything, so a bad flag ends in a one-line error instead of a panic in
// taskgraph or platform, a schedule the validator rejects, or a simulation
// that cannot advance.
func CheckProblem(T, cpus, gpus int, sigma float64) error {
	switch {
	case T < 1:
		return fmt.Errorf("tile count T must be >= 1, got %d", T)
	case cpus < 0 || gpus < 0:
		return fmt.Errorf("resource counts must be >= 0, got %d CPUs and %d GPUs", cpus, gpus)
	case cpus+gpus < 1:
		return fmt.Errorf("the platform needs at least one resource, got %d CPUs and %d GPUs", cpus, gpus)
	case !(sigma >= 0) || math.IsInf(sigma, 1):
		return fmt.Errorf("duration noise sigma must be a finite number >= 0, got %g", sigma)
	}
	return nil
}

// CheckCount refuses a count below least, naming what it counts. The
// commands call it on their count flags before they build anything, and the
// sweeps on their run counts, so a count out of range is a one-line error
// rather than a panic or a table of zeros.
func CheckCount(what string, n, least int) error {
	if n < least {
		return fmt.Errorf("%s must be >= %d, got %d", what, least, n)
	}
	return nil
}

// CheckTrainFlags refuses a readys-train command line that sets a flag its
// mode does not read, naming each such flag, so that a setting is never
// dropped without a word. set holds the names of the flags given, without
// their dash, as flag.Visit reports them. -all trains every recipe of Recipes
// on its own problem, architecture and budget, fault-free, so it reads only
// where and how to train; -stream trains StreamRecipe, whose problem mix and
// architecture are its own, so it reads the budget and the fault rate but no
// problem or architecture flag. Training one combination reads them all.
func CheckTrainFlags(all, stream bool, set []string) error {
	var mode string
	var unread []string
	switch {
	case all:
		mode, unread = "-all", []string{"kind", "T", "cpus", "gpus", "episodes", "stream", "window", "layers", "hidden", "seed", "fault-rate"}
	case stream:
		mode, unread = "-stream", []string{"kind", "T", "cpus", "gpus", "window", "layers", "hidden", "seed"}
	}
	var ignored []string
	for _, f := range set {
		if slices.Contains(unread, f) {
			ignored = append(ignored, "-"+f)
		}
	}
	if len(ignored) > 0 {
		return fmt.Errorf("%s does not read %s", mode, strings.Join(ignored, ", "))
	}
	return nil
}

// CheckFaultRate refuses a fault rate (sim.SpecForRate) that is not a finite
// number >= 0. SpecForRate reads a rate <= 0 as "no faults", so without this
// check a negative or NaN -fault-rate would run fault-free without a word.
func CheckFaultRate(rate float64) error {
	if !(rate >= 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("fault rate must be a finite number >= 0, got %g", rate)
	}
	return nil
}

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
