package taskgraph

import (
	"fmt"
	"math/rand"
)

// RandomConfig parameterises the layered random DAG generator used to test
// the scheduler beyond the three factorisation families.
type RandomConfig struct {
	// Layers is the number of layers; edges only go from earlier to later
	// layers, which guarantees acyclicity.
	Layers int
	// WidthMin and WidthMax bound the number of tasks per layer.
	WidthMin, WidthMax int
	// EdgeProb is the probability of an edge between a task and each task of
	// the next layer. Every non-root task receives at least one predecessor
	// from the previous layer so the DAG stays connected layer to layer.
	EdgeProb float64
	// LongEdgeProb is the probability of an additional edge skipping to a
	// random later layer.
	LongEdgeProb float64
}

// DefaultRandomConfig returns a configuration producing DAGs with a shape
// comparable to a mid-size factorisation graph.
func DefaultRandomConfig() RandomConfig {
	return RandomConfig{Layers: 8, WidthMin: 2, WidthMax: 8, EdgeProb: 0.3, LongEdgeProb: 0.05}
}

// NewLayeredRandom generates a random layered DAG. Kernel types are assigned
// uniformly at random across the four types.
func NewLayeredRandom(rng *rand.Rand, cfg RandomConfig) *Graph {
	if cfg.Layers < 1 || cfg.WidthMin < 1 || cfg.WidthMax < cfg.WidthMin {
		panic(fmt.Sprintf("taskgraph: invalid random config %+v", cfg))
	}
	g := newGraph(Random, 0, KernelNamesFor(Random))
	layers := make([][]int, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		width := cfg.WidthMin + rng.Intn(cfg.WidthMax-cfg.WidthMin+1)
		for t := 0; t < width; t++ {
			k := Kernel(rng.Intn(NumKernels))
			id := g.AddTask(k, fmt.Sprintf("%s_L%d_%d", g.KernelNames[k], l, t))
			layers[l] = append(layers[l], id)
		}
	}
	for l := 0; l+1 < cfg.Layers; l++ {
		for _, to := range layers[l+1] {
			hasPred := false
			for _, from := range layers[l] {
				if rng.Float64() < cfg.EdgeProb {
					g.AddEdge(from, to)
					hasPred = true
				}
			}
			if !hasPred {
				from := layers[l][rng.Intn(len(layers[l]))]
				g.AddEdge(from, to)
			}
		}
		// Occasional long edges to later layers.
		for _, from := range layers[l] {
			if rng.Float64() < cfg.LongEdgeProb && l+2 < cfg.Layers {
				tl := l + 2 + rng.Intn(cfg.Layers-l-2)
				to := layers[tl][rng.Intn(len(layers[tl]))]
				g.AddEdge(from, to)
			}
		}
	}
	return g
}
