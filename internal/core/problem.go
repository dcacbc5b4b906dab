// Package core implements READYS, the paper's contribution: a reinforcement-
// learning dynamic scheduler for DAGs on heterogeneous platforms.
//
// The package contains
//   - the state encoder of §III-B (windowed sub-DAG of running/ready tasks
//     and their descendants up to depth w, per-task raw features X̂ including
//     the descendant-type summary F, and the resource-state vector),
//   - the policy/value network of Fig. 2 (input projection, a stack of GCN
//     layers, an actor head scoring each ready task, an ∅-action head fed by
//     the processor embedding and the max-pooled DAG representation, and a
//     critic head on the mean-pooled representation),
//   - the sim.Policy adapter used for both training (sampling, trajectory
//     recording) and evaluation (greedy), and
//   - checkpointing for the transfer-learning experiments (§V-F).
package core

import (
	"math/rand"

	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// Problem bundles one scheduling instance: a DAG, a platform, the timing
// tables and the duration-noise level, plus an optional fault model.
type Problem struct {
	Graph    *taskgraph.Graph
	Platform platform.Platform
	Timing   platform.Timing
	Sigma    float64
	// Faults, when enabled, injects a per-run fault plan (outages, deaths,
	// degradation) derived deterministically from the simulation RNG. The
	// zero value disables fault injection entirely and leaves every result
	// bit-identical to a fault-free run.
	Faults sim.FaultSpec
}

// NewProblem builds a Problem for a factorisation kind, tile count, platform
// and noise level. Its graph is frozen: whoever holds the Problem runs every
// episode on the same immutable graph, which is what lets a Policy keep its
// per-graph statics from one episode to the next.
func NewProblem(kind taskgraph.Kind, T, numCPU, numGPU int, sigma float64) Problem {
	return Problem{
		Graph:    taskgraph.NewFrozenByKind(kind, T),
		Platform: platform.New(numCPU, numGPU),
		Timing:   platform.TimingFor(kind),
		Sigma:    sigma,
	}
}

// HEFTBaseline returns the projected HEFT makespan of the problem under
// expected durations. Per §III-B the terminal reward is
//
//	R = (makespan(HEFT) − makespan) / makespan(HEFT),
//
// positive exactly when the agent beats HEFT. The projection is used (rather
// than a noisy HEFT execution) so the reward scale is deterministic across
// episodes.
func (p Problem) HEFTBaseline() float64 {
	return sched.HEFT(p.Graph, p.Platform, p.Timing).Makespan
}

// Reward converts an achieved makespan into the terminal reward against the
// given HEFT baseline makespan.
func Reward(heftMakespan, makespan float64) float64 {
	return (heftMakespan - makespan) / heftMakespan
}

// FaultHorizonFactor sizes the default fault horizon relative to the HEFT
// projected makespan: faults keep arriving while the schedule drags past its
// projection, which is precisely when a fragile policy is being punished.
const FaultHorizonFactor = 2.5

// FaultPlanFor materialises the problem's fault spec into a concrete plan
// for the given seed (nil spec disabled → empty plan). A zero Horizon
// defaults to FaultHorizonFactor times the HEFT projection.
func (p Problem) FaultPlanFor(seed int64) *sim.FaultPlan {
	if !p.Faults.Enabled() {
		return nil
	}
	spec := p.Faults
	if spec.Horizon <= 0 {
		spec.Horizon = FaultHorizonFactor * p.HEFTBaseline()
	}
	return sim.GeneratePlan(seed, p.Platform.Size(), spec)
}

// Simulate runs the problem under an arbitrary policy with the given RNG.
// When the problem's fault spec is enabled, a fault plan is derived from one
// draw of rng — so distinct episode RNGs yield distinct, reproducible fault
// streams; with faults disabled, rng is consumed exactly as before.
func (p Problem) Simulate(pol sim.Policy, rng *rand.Rand) (sim.Result, error) {
	return p.SimulateOn(new(sim.Runner), pol, rng)
}

// SimulateOn is Simulate in the memory of a runner the caller keeps across
// runs; the Result's Trace and Kills are valid until the runner's next run
// (see sim.Runner).
func (p Problem) SimulateOn(rn *sim.Runner, pol sim.Policy, rng *rand.Rand) (sim.Result, error) {
	var plan *sim.FaultPlan
	if p.Faults.Enabled() {
		plan = p.FaultPlanFor(rng.Int63())
	}
	return rn.Simulate(p.Graph, p.Platform, p.Timing, pol, sim.Options{Sigma: p.Sigma, Rng: rng, Faults: plan})
}
