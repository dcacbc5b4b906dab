// Package serve is the online scheduling service: a long-lived HTTP daemon
// that answers scheduling requests with trained READYS policies.
//
// The batch entry points (cmd/readys-sim, cmd/readys-eval) load one model,
// run once and exit. This package instead keeps models resident and serves
// many requests concurrently, the deployment shape GCNScheduler (Kiamari &
// Krishnamachari, 2021) argues GCN schedulers are for: fast online inference
// over incoming task graphs. Three pieces cooperate:
//
//   - Registry (registry.go): lazily loads checkpoints from a model
//     directory, LRU-caches them keyed by (kind, T, platform) and hands each
//     in-flight request a decision context of its own over the model's one
//     shared, read-only agent, so inference never shares mutable state
//     between goroutines.
//   - Pool (pool.go): a fixed set of worker goroutines behind a bounded
//     queue. The queue bound is the service's backpressure: when it is full,
//     requests are rejected immediately with 503 instead of piling up.
//   - Server (server.go): the stdlib-only net/http JSON API —
//     POST /v1/schedule, GET /v1/models, GET /healthz, GET /metrics —
//     with request timeouts and graceful drain on shutdown.
package serve

import (
	"errors"
	"fmt"
	"math"

	"readys/internal/taskgraph"
)

// ScheduleRequest is the body of POST /v1/schedule. Either a built-in DAG
// family is named (Kind + T) or an explicit DAG is supplied (DAG != nil, with
// Kind still selecting the kernel timing tables). TrainT optionally picks a
// model trained at a different tile count than the request's T — the paper's
// transfer-learning usage; it is required for explicit DAGs, which have no
// tile count of their own.
type ScheduleRequest struct {
	// Kind is the DAG family: "cholesky", "lu" or "qr". For explicit DAGs it
	// selects the timing tables.
	Kind string `json:"kind"`
	// T is the tile count of the generated DAG. Ignored when DAG is set.
	T int `json:"t,omitempty"`
	// TrainT selects a model trained at this tile count (transfer). Defaults
	// to T. Required when DAG is set.
	TrainT int `json:"train_t,omitempty"`
	// CPUs and GPUs describe the platform.
	CPUs int `json:"cpus"`
	GPUs int `json:"gpus"`
	// Sigma is the duration-noise level σ of §V-B. Must be >= 0.
	Sigma float64 `json:"sigma"`
	// Seed drives the stochastic simulation. Two requests with identical
	// parameters and seeds produce identical plans.
	Seed int64 `json:"seed"`
	// DAG, when set, schedules an explicit task graph instead of a generated
	// factorisation DAG.
	DAG *DAGSpec `json:"dag,omitempty"`
}

// DAGSpec is an explicit task graph: tasks with kernel indices into the
// family's timing table, and dependency edges between task indices.
type DAGSpec struct {
	Tasks []DAGTask `json:"tasks"`
	// Edges lists dependencies [from, to]: from must finish before to starts.
	Edges [][2]int `json:"edges"`
}

// DAGTask is one vertex of an explicit DAG.
type DAGTask struct {
	// Kernel indexes the family's timing table (0..3).
	Kernel int `json:"kernel"`
	// Name is an optional human-readable label echoed back in placements.
	Name string `json:"name,omitempty"`
}

// MaxDAGTasks bounds the task graph of a request, explicit or generated: a
// shared service must not let one caller buy an arbitrarily expensive forward
// pass. A generated body is held to it by the family's closed-form task count,
// before anything is built. It is the bound stream arrival traces are held to.
const MaxDAGTasks = taskgraph.MaxTasks

// PlacementJSON is one scheduled task in a response.
type PlacementJSON struct {
	Task     int     `json:"task"`
	Name     string  `json:"name,omitempty"`
	Resource int     `json:"resource"`
	Type     string  `json:"type"` // "CPU" or "GPU"
	Start    float64 `json:"start_ms"`
	End      float64 `json:"end_ms"`
}

// ScheduleResponse is the body answering POST /v1/schedule.
type ScheduleResponse struct {
	// Model is the canonical name of the checkpoint that produced the plan.
	Model string `json:"model"`
	// CacheHit reports whether the model was already resident.
	CacheHit bool `json:"cache_hit"`
	// Makespan is the READYS plan's makespan in ms.
	Makespan float64 `json:"makespan_ms"`
	// HEFTMakespan / MCTMakespan are reference makespans of the two
	// baselines on the same problem (HEFT projected, MCT simulated with a
	// seed derived from the request's).
	HEFTMakespan float64 `json:"heft_makespan_ms"`
	MCTMakespan  float64 `json:"mct_makespan_ms"`
	// ImproveVsHEFT / ImproveVsMCT are baseline/READYS makespan ratios
	// (>1 means READYS wins).
	ImproveVsHEFT float64 `json:"improve_vs_heft"`
	ImproveVsMCT  float64 `json:"improve_vs_mct"`
	NumTasks      int     `json:"num_tasks"`
	Decisions     int     `json:"decisions"`
	IdleDecisions int     `json:"idle_decisions"`
	// ElapsedMS is the service-side wall-clock of the rollout in ms.
	ElapsedMS  float64         `json:"elapsed_ms"`
	Placements []PlacementJSON `json:"placements"`
}

// ModelInfo describes one checkpoint visible to the registry.
type ModelInfo struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	T      int    `json:"t"`
	CPUs   int    `json:"cpus"`
	GPUs   int    `json:"gpus"`
	Window int    `json:"window"`
	Layers int    `json:"layers"`
	Hidden int    `json:"hidden"`
	// Loaded reports whether the checkpoint is currently resident in the
	// registry cache.
	Loaded bool `json:"loaded"`
	// Meta is the checkpoint's stored metadata (training episodes, rewards,
	// …); only present for loaded models.
	Meta map[string]string `json:"meta,omitempty"`
}

// ModelsResponse is the body answering GET /v1/models.
type ModelsResponse struct {
	Dir    string      `json:"dir"`
	Models []ModelInfo `json:"models"`
}

// Validate checks a schedule request's scalar fields; DAG contents are
// validated by BuildGraph.
func (r *ScheduleRequest) Validate() error {
	kind, err := r.kind()
	if err != nil {
		return err
	}
	if r.DAG == nil && r.T < 1 {
		return fmt.Errorf("serve: tile count t must be >= 1, got %d", r.T)
	}
	if r.DAG == nil && !taskgraph.WithinMaxTasks(kind, r.T) {
		return fmt.Errorf("serve: %s t=%d generates more than the limit of %d tasks", kind, r.T, MaxDAGTasks)
	}
	if r.DAG != nil && r.TrainT < 1 {
		return errors.New("serve: explicit DAGs require train_t (the tile count the model was trained at)")
	}
	if r.CPUs < 0 || r.GPUs < 0 || r.CPUs+r.GPUs < 1 {
		return fmt.Errorf("serve: platform needs >= 1 resource, got %d CPUs and %d GPUs", r.CPUs, r.GPUs)
	}
	if !(r.Sigma >= 0) || math.IsInf(r.Sigma, 1) {
		return fmt.Errorf("serve: sigma must be a finite number >= 0, got %g", r.Sigma)
	}
	if r.TrainT < 0 {
		return fmt.Errorf("serve: train_t must be >= 1, got %d", r.TrainT)
	}
	return nil
}

// kind parses the request's DAG family.
func (r *ScheduleRequest) kind() (taskgraph.Kind, error) {
	if r.Kind == "" {
		return 0, errors.New("serve: missing DAG kind")
	}
	kind, err := taskgraph.KindFromString(r.Kind)
	if err != nil {
		return 0, fmt.Errorf("serve: %w", err)
	}
	return kind, nil
}

// ModelT returns the tile count the serving model must have been trained at.
func (r *ScheduleRequest) ModelT() int {
	if r.TrainT > 0 {
		return r.TrainT
	}
	return r.T
}

// BuildGraph materialises the request's task graph: the named generator for
// family requests, or the explicit DAG checked for bounds and acyclicity and
// built frozen, in one pass, by taskgraph.NewFrozen.
func (r *ScheduleRequest) BuildGraph() (*taskgraph.Graph, error) {
	kind, err := r.kind()
	if err != nil {
		return nil, err
	}
	if r.DAG == nil {
		return taskgraph.NewByKind(kind, r.T), nil
	}
	spec := r.DAG
	n := len(spec.Tasks)
	if n == 0 {
		return nil, errors.New("serve: explicit dag has no tasks")
	}
	if n > MaxDAGTasks {
		return nil, fmt.Errorf("serve: explicit dag has %d tasks, limit is %d", n, MaxDAGTasks)
	}
	// Kernel names come from the family whose timing tables the DAG borrows.
	kernelNames := taskgraph.KernelNamesFor(kind)
	kernels, names := make([]taskgraph.Kernel, n), make([]string, n)
	for i, task := range spec.Tasks {
		if task.Kernel < 0 || task.Kernel >= taskgraph.NumKernels {
			return nil, fmt.Errorf("serve: task %d kernel %d out of range [0,%d)", i, task.Kernel, taskgraph.NumKernels)
		}
		kernels[i], names[i] = taskgraph.Kernel(task.Kernel), task.Name
		if task.Name == "" {
			names[i] = fmt.Sprintf("%s#%d", kernelNames[task.Kernel], i)
		}
	}
	for _, e := range spec.Edges {
		from, to := e[0], e[1]
		if from < 0 || from >= n || to < 0 || to >= n {
			return nil, fmt.Errorf("serve: edge [%d,%d] out of range for %d tasks", from, to, n)
		}
		if from == to {
			return nil, fmt.Errorf("serve: self-edge on task %d", from)
		}
	}
	g, err := taskgraph.NewFrozen(kind, kernelNames, kernels, names, spec.Edges)
	if err != nil {
		return nil, fmt.Errorf("serve: explicit dag invalid: %w", err)
	}
	return g, nil
}
