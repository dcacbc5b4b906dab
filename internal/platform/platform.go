// Package platform models the heterogeneous computing node of the paper:
// a few CPUs and GPUs with *unrelated* performance (the speed-up of a GPU
// over a CPU depends on the kernel), per-kernel expected durations taken from
// the dense linear-algebra literature, and the stochastic duration model of
// §V-B:
//
//	d(i,p) = max(0, N(E(i,p), σ·E(i,p))).
package platform

import (
	"fmt"
	"math/rand"

	"readys/internal/taskgraph"
)

// ResourceType distinguishes CPUs from GPUs.
type ResourceType int

// Resource types.
const (
	CPU ResourceType = iota
	GPU
	NumResourceTypes
)

// String returns "CPU" or "GPU".
func (r ResourceType) String() string {
	switch r {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("ResourceType(%d)", int(r))
	}
}

// Resource is one computing unit of the platform.
type Resource struct {
	ID   int
	Type ResourceType
}

// Platform is an ordered set of resources. CPUs come first, then GPUs, which
// keeps resource IDs stable across runs.
type Platform struct {
	Resources []Resource
}

// New builds a platform with the given number of CPUs and GPUs.
func New(numCPU, numGPU int) Platform {
	if numCPU < 0 || numGPU < 0 || numCPU+numGPU == 0 {
		panic(fmt.Sprintf("platform: invalid sizes %d CPUs, %d GPUs", numCPU, numGPU))
	}
	p := Platform{}
	for i := 0; i < numCPU; i++ {
		p.Resources = append(p.Resources, Resource{ID: len(p.Resources), Type: CPU})
	}
	for i := 0; i < numGPU; i++ {
		p.Resources = append(p.Resources, Resource{ID: len(p.Resources), Type: GPU})
	}
	return p
}

// Size returns the number of resources.
func (p Platform) Size() int { return len(p.Resources) }

// Count returns the number of resources of the given type.
func (p Platform) Count(t ResourceType) int {
	var n int
	for _, r := range p.Resources {
		if r.Type == t {
			n++
		}
	}
	return n
}

// String renders the platform as e.g. "2CPU+2GPU".
func (p Platform) String() string {
	return fmt.Sprintf("%dCPU+%dGPU", p.Count(CPU), p.Count(GPU))
}

// Timing holds the expected duration (in milliseconds) of each kernel type of
// one DAG family on each resource type.
type Timing struct {
	Kind taskgraph.Kind
	// Expected[k][t] is E(kernel k, resource type t) in ms.
	Expected [taskgraph.NumKernels][NumResourceTypes]float64
}

// choleskyTiming, luTiming and qrTiming reproduce the expected kernel
// durations of double-precision 960x960 tiles on a multicore CPU node with
// discrete accelerators, as measured in the references the paper takes its
// cost models from (Agullo et al. [3], [4]; Agullo, Beaumont, Eyraud-Dubois,
// Kumar [6]). What matters for scheduling behaviour is the *unrelated*
// acceleration structure: trailing-matrix updates (GEMM, SYRK, TSMQR) enjoy
// 25-30x GPU speed-ups, triangular solves ~15x, while panel factorisations
// (POTRF, GETRF, GEQRT) barely double — exactly the regime in which
// allocation matters and HEFT/MCT/READYS differ.
var (
	choleskyTiming = Timing{
		Kind: taskgraph.Cholesky,
		Expected: [taskgraph.NumKernels][NumResourceTypes]float64{
			taskgraph.KPOTRF: {16, 8},   // 2.0x
			taskgraph.KTRSM:  {44, 2.9}, // 15.2x
			taskgraph.KSYRK:  {42, 1.6}, // 26.2x
			taskgraph.KGEMM:  {88, 3.0}, // 29.3x
		},
	}
	luTiming = Timing{
		Kind: taskgraph.LU,
		Expected: [taskgraph.NumKernels][NumResourceTypes]float64{
			taskgraph.KGETRF:  {30, 12},  // 2.5x
			taskgraph.KTRSML:  {44, 3.0}, // 14.7x
			taskgraph.KTRSMU:  {44, 3.0}, // 14.7x
			taskgraph.KGEMMLU: {88, 3.0}, // 29.3x
		},
	}
	qrTiming = Timing{
		Kind: taskgraph.QR,
		Expected: [taskgraph.NumKernels][NumResourceTypes]float64{
			taskgraph.KGEQRT: {35, 14},  // 2.5x
			taskgraph.KORMQR: {60, 4.0}, // 15.0x
			taskgraph.KTSQRT: {40, 10},  // 4.0x
			taskgraph.KTSMQR: {120, 5},  // 24.0x
		},
	}
	// randomTiming gives the synthetic kernels of random DAGs a similar
	// unrelated structure.
	randomTiming = Timing{
		Kind: taskgraph.Random,
		Expected: [taskgraph.NumKernels][NumResourceTypes]float64{
			0: {20, 10}, // 2x
			1: {50, 5},  // 10x
			2: {40, 2},  // 20x
			3: {90, 3},  // 30x
		},
	}
	// gemmTiming: loads/stores are memory-bound (little GPU advantage), the
	// multiply-accumulate kernel is the GPU's best case.
	gemmTiming = Timing{
		Kind: taskgraph.Gemm,
		Expected: [taskgraph.NumKernels][NumResourceTypes]float64{
			taskgraph.KLoadA:  {6, 4},  // 1.5x
			taskgraph.KLoadB:  {6, 4},  // 1.5x
			taskgraph.KStoreC: {6, 5},  // 1.2x
			taskgraph.KMulAcc: {88, 3}, // 29.3x
		},
	}
	// stencilTiming: interior cells vectorise well on GPUs; boundary cells
	// are branchy and favour CPUs slightly less markedly.
	stencilTiming = Timing{
		Kind: taskgraph.Stencil,
		Expected: [taskgraph.NumKernels][NumResourceTypes]float64{
			taskgraph.KCorner:   {10, 8}, // 1.25x
			taskgraph.KEdgeRow:  {18, 6}, // 3x
			taskgraph.KEdgeCol:  {18, 6}, // 3x
			taskgraph.KInterior: {30, 2}, // 15x
		},
	}
	// forkJoinTiming: fork/join/reduce are serial control tasks (CPU-ish),
	// the worker kernel is throughput-oriented.
	forkJoinTiming = Timing{
		Kind: taskgraph.ForkJoin,
		Expected: [taskgraph.NumKernels][NumResourceTypes]float64{
			taskgraph.KFork:   {5, 5},   // 1x
			taskgraph.KWork:   {60, 3},  // 20x
			taskgraph.KJoin:   {8, 6},   // 1.3x
			taskgraph.KReduce: {25, 10}, // 2.5x
		},
	}
)

// TimingFor returns the timing table of a DAG family.
func TimingFor(kind taskgraph.Kind) Timing {
	switch kind {
	case taskgraph.Cholesky:
		return choleskyTiming
	case taskgraph.LU:
		return luTiming
	case taskgraph.QR:
		return qrTiming
	case taskgraph.Random:
		return randomTiming
	case taskgraph.Gemm:
		return gemmTiming
	case taskgraph.Stencil:
		return stencilTiming
	case taskgraph.ForkJoin:
		return forkJoinTiming
	default:
		panic(fmt.Sprintf("platform: no timing for kind %v", kind))
	}
}

// ExpectedDuration returns E(task, resource) for a task of kernel k on a
// resource of type t.
func (tt Timing) ExpectedDuration(k taskgraph.Kernel, t ResourceType) float64 {
	return tt.Expected[k][t]
}

// MaxExpected returns the largest expected duration in the table, used to
// normalise time-valued state features.
func (tt Timing) MaxExpected() float64 {
	var m float64
	for _, row := range tt.Expected {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// MeanExpected returns the mean expected duration of kernel k over resource
// types, the quantity HEFT's upward ranks average over.
func (tt Timing) MeanExpected(k taskgraph.Kernel) float64 {
	var s float64
	for t := ResourceType(0); t < NumResourceTypes; t++ {
		s += tt.Expected[k][t]
	}
	return s / float64(NumResourceTypes)
}

// SampleDuration draws the actual duration of a task of kernel k on resource
// type t under noise level sigma, following §V-B:
// d = max(0, N(E, σE)). sigma = 0 returns E exactly, keeping the noise-free
// case deterministic.
func (tt Timing) SampleDuration(rng *rand.Rand, k taskgraph.Kernel, t ResourceType, sigma float64) float64 {
	e := tt.Expected[k][t]
	if sigma == 0 {
		return e
	}
	d := float64(rng.NormFloat64()*sigma*e) + e
	if d < 0 {
		return 0
	}
	return d
}
