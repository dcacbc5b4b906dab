package core

import (
	"math"

	"readys/internal/nn"
	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
	"readys/internal/tensor"
)

// Per-node raw feature layout (§III-B, extended with explicit per-resource
// expected durations so the network can learn the unrelated-machines
// structure). All features are normalised to keep the representation
// transferable across problem sizes.
const (
	featSucc  = iota // |S(i)| / degreeNorm (clamped)
	featPred         // |P(i)| / degreeNorm (clamped)
	featType0        // one-hot kernel type
	featType1
	featType2
	featType3
	featReady     // 1 if the task is ready
	featRunning   // 1 if the task is currently executing
	featRemaining // estimated remaining expected time / maxE (running only)
	featF0        // descendant-type summary F(i)
	featF1
	featF2
	featF3
	featDurCPU // E(i, CPU) / maxE
	featDurGPU // E(i, GPU) / maxE

	numTaskFeatures
)

// Resource-context features, appended to every node row ("sub-DAG enriched
// with the computing resource state information", Fig. 2) and fed separately
// to the ∅-action head.
const (
	procIsCPU = iota // current processor type one-hot
	procIsGPU
	procFreeCPU  // fraction of CPUs currently free
	procFreeGPU  // fraction of GPUs currently free
	procWaitCPU  // min estimated wait over CPUs / maxE
	procWaitGPU  // min estimated wait over GPUs / maxE
	procReadyCnt // |ready| / window size

	NumProcFeatures
)

// Fault-state features (Config.FaultFeatures), appended after the base
// resource context. They expose exactly the state PR 5's fault model mutates
// — availability, speed degradation, and how often the world has shifted —
// so the agent can learn to route around outages instead of re-discovering
// them through stalled ECTs.
const (
	procUpFrac     = NumProcFeatures + iota // fraction of resources currently up (ResourceUp)
	procSpeed                               // SpeedFactor of the asking resource / speedNorm (clamped)
	procFaultEpoch                          // FaultEpoch / (FaultEpoch + faultEpochNorm) ∈ [0, 1)

	numFaultProcFeatures = iota
)

// speedNorm bounds the speed-factor feature (degrade factors in GeneratePlan
// stay well under this); faultEpochNorm soft-normalises the event counter.
const (
	speedNorm      = 4.0
	faultEpochNorm = 8.0
)

// NumNodeFeatures is the width of each node row: task features plus the
// broadcast resource context.
const NumNodeFeatures = numTaskFeatures + NumProcFeatures

// ProcFeatureWidth returns the resource-context width for the given
// fault-feature setting; NodeFeatureWidth the matching node-row width. The
// legacy constants equal the faultFeatures=false widths, so existing
// checkpoints keep their parameter layout bit-for-bit.
func ProcFeatureWidth(faultFeatures bool) int {
	if faultFeatures {
		return NumProcFeatures + numFaultProcFeatures
	}
	return NumProcFeatures
}

// NodeFeatureWidth returns the per-node feature width for the given
// fault-feature setting.
func NodeFeatureWidth(faultFeatures bool) int {
	return numTaskFeatures + ProcFeatureWidth(faultFeatures)
}

// degreeNorm bounds the degree features; factorisation DAGs have per-node
// degrees well below this for the sizes studied.
const degreeNorm = 12.0

// EncodedState is the network-ready representation of one scheduling
// decision: the windowed sub-DAG with features and normalised adjacency, the
// rows corresponding to ready tasks (the candidate actions) and the resource
// context.
type EncodedState struct {
	// Nodes lists the window's task IDs, sorted; row i of X describes
	// Nodes[i].
	Nodes []int
	// X is the len(Nodes) x NumNodeFeatures feature matrix.
	X *tensor.Matrix
	// Norm is the normalised adjacency of the induced sub-DAG in CSR form
	// (DAG windows are sparse: O(E) nonzeros against n² dense entries).
	Norm *tensor.Sparse
	// ReadyRows/ReadyTasks map candidate actions to rows and task IDs.
	ReadyRows  []int
	ReadyTasks []int
	// Proc is the 1 x NumProcFeatures resource-context vector.
	Proc *tensor.Matrix
	// AllowIdle reports whether the ∅ action is legal (at least one task is
	// running, so simulated time can advance).
	AllowIdle bool

	// graphEpoch is the sim.State.GraphEpoch the state was encoded at: within
	// one epoch a task's static feature columns are the same in every state.
	graphEpoch int
}

// NumActions returns the size of the action space of this state.
func (e *EncodedState) NumActions() int {
	n := len(e.ReadyRows)
	if e.AllowIdle {
		n++
	}
	return n
}

// EncodeFault builds the EncodedState for a decision on the given resource. F
// is the per-task descendant feature matrix of the full DAG (computed once per
// episode with taskgraph.DescendantFeatures); w is the window depth. directed
// selects the row-normalised downstream operator (see
// nn.DirectedNormalizedAdjacency) over the paper's symmetric normalisation.
// When faultFeatures is true the resource context (and hence every node row)
// gains the fault-state block, widening rows to NodeFeatureWidth(true); with it
// false the encoding is bit-identical to the one from before the flag existed
// — the flag-off inertness the checkpoint format relies on.
func EncodeFault(s *sim.State, resource int, F [][taskgraph.NumKernels]float64, w int, directed, faultFeatures bool) *EncodedState {
	g := s.Graph
	nodes := taskgraph.Window(g, s.Running, s.Ready, w)
	rowOf := make(map[int]int, len(nodes))
	for row, t := range nodes {
		rowOf[t] = row
	}
	maxE := s.MaxExpected()
	procWidth := ProcFeatureWidth(faultFeatures)

	proc := tensor.New(1, procWidth)
	fillProcVector(s, resource, maxE, len(nodes), faultFeatures, proc.Data)

	// The ∅ action is legal unless the engine is in a forced round: when
	// nothing is running and every resource idled, someone must act or time
	// cannot advance.
	x := tensor.New(len(nodes), numTaskFeatures+procWidth)
	es := &EncodedState{Nodes: nodes, X: x, Proc: proc, AllowIdle: !s.MustAct, graphEpoch: s.GraphEpoch}
	for row, t := range nodes {
		rf := x.Row(row)
		fillStaticTaskFeatures(s, t, F[t], maxE, rf)
		if fillDynamicTaskFeatures(s, t, maxE, rf) {
			es.ReadyRows = append(es.ReadyRows, row)
			es.ReadyTasks = append(es.ReadyTasks, t)
		}
		copy(rf[numTaskFeatures:], proc.Data)
	}

	// Induced sub-DAG adjacency, symmetrically normalised for the GCN.
	succ := make([][]int, len(nodes))
	for row, t := range nodes {
		for _, j := range g.Succ[t] {
			if jr, ok := rowOf[j]; ok {
				succ[row] = append(succ[row], jr)
			}
		}
	}
	if directed {
		es.Norm = nn.DirectedNormalizedAdjacency(len(nodes), succ)
	} else {
		es.Norm = nn.NormalizedAdjacency(len(nodes), succ)
	}
	return es
}

// fillProcVector fills the resource-context vector for a decision on the
// given resource. data must have length ProcFeatureWidth(faultFeatures) and is
// zeroed first, so the same buffer can be reused across decisions. It is the
// single implementation shared by the full rebuild (EncodeFault) and the
// incremental encoder — sharing is what makes the two paths bit-identical.
func fillProcVector(s *sim.State, resource int, maxE float64, numNodes int, faultFeatures bool, data []float64) {
	for i := range data {
		data[i] = 0
	}
	if s.Platform.Resources[resource].Type == platform.CPU {
		data[procIsCPU] = 1
	} else {
		data[procIsGPU] = 1
	}
	var freeCPU, freeGPU, numCPU, numGPU int
	waitCPU, waitGPU := math.Inf(1), math.Inf(1)
	for r, res := range s.Platform.Resources {
		wait := s.EstTimeUntilFree(r)
		if res.Type == platform.CPU {
			numCPU++
			if s.IsFree(r) {
				freeCPU++
			}
			if wait < waitCPU {
				waitCPU = wait
			}
		} else {
			numGPU++
			if s.IsFree(r) {
				freeGPU++
			}
			if wait < waitGPU {
				waitGPU = wait
			}
		}
	}
	if numCPU > 0 {
		data[procFreeCPU] = float64(freeCPU) / float64(numCPU)
		data[procWaitCPU] = waitCPU / maxE
	}
	if numGPU > 0 {
		data[procFreeGPU] = float64(freeGPU) / float64(numGPU)
		data[procWaitGPU] = waitGPU / maxE
	}
	if numNodes > 0 {
		data[procReadyCnt] = float64(len(s.Ready)) / float64(numNodes)
	}
	if faultFeatures {
		var up int
		for r := range s.Platform.Resources {
			if s.ResourceUp(r) {
				up++
			}
		}
		data[procUpFrac] = float64(up) / float64(s.Platform.Size())
		data[procSpeed] = clamp01(s.SpeedFactor(resource) / speedNorm)
		data[procFaultEpoch] = float64(s.FaultEpoch) / (float64(s.FaultEpoch) + faultEpochNorm)
	}
}

// fillStaticTaskFeatures fills the columns of rf that change only when the
// graph itself changes (GraphEpoch): degrees, kernel one-hot, descendant
// summary f = F(t), and expected durations. rf must be zeroed beforehand.
func fillStaticTaskFeatures(s *sim.State, t int, f [taskgraph.NumKernels]float64, maxE float64, rf []float64) {
	g := s.Graph
	task := g.Tasks[t]
	rf[featSucc] = clamp01(float64(len(g.Succ[t])) / degreeNorm)
	rf[featPred] = clamp01(float64(len(g.Pred[t])) / degreeNorm)
	rf[featType0+int(task.Kernel)] = 1
	copy(rf[featF0:], f[:])
	tt := s.TaskTiming(t)
	rf[featDurCPU] = tt.ExpectedDuration(task.Kernel, platform.CPU) / maxE
	rf[featDurGPU] = tt.ExpectedDuration(task.Kernel, platform.GPU) / maxE
}

// fillDynamicTaskFeatures overwrites the decision-varying columns of rf
// (ready/running/remaining) and reports whether the task is ready — i.e.
// whether it is a candidate action of this decision.
func fillDynamicTaskFeatures(s *sim.State, t int, maxE float64, rf []float64) bool {
	rf[featReady], rf[featRunning], rf[featRemaining] = 0, 0, 0
	if s.Started[t] && !s.Done[t] {
		rf[featRunning] = 1
		r := s.AssignedTo[t]
		// Speed-aware under fault injection (exact multiply by 1 without).
		e := s.EstTaskDuration(t, r)
		rem := s.StartTime[t] + e - s.Now
		if rem < 0 {
			rem = 0
		}
		rf[featRemaining] = rem / maxE
		return false
	}
	if s.PredLeft[t] == 0 && !s.Started[t] {
		rf[featReady] = 1
		return true
	}
	return false
}

func clamp01(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < 0 {
		return 0
	}
	return v
}
