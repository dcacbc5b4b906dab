package core

import (
	"fmt"
	"testing"

	"readys/internal/taskgraph"
)

func BenchmarkEncode(b *testing.B) {
	for _, T := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("cholesky/T=%d", T), func(b *testing.B) {
			p := NewProblem(taskgraph.Cholesky, T, 2, 2, 0)
			s := initialState(p)
			F := taskgraph.DescendantFeatures(p.Graph)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				EncodeFault(s, 0, F, 2, false, false)
			}
		})
	}
}

func BenchmarkAgentForward(b *testing.B) {
	for _, hidden := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("hidden=%d", hidden), func(b *testing.B) {
			p := NewProblem(taskgraph.Cholesky, 8, 2, 2, 0)
			agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: hidden, Seed: 1})
			es := encodeInitial(p, 0, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Forward(es)
			}
		})
	}
}

func BenchmarkDescendantFeatures(b *testing.B) {
	g := taskgraph.NewCholesky(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		taskgraph.DescendantFeatures(g)
	}
}
