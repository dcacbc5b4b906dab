package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"readys/internal/sim"
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

// BenchmarkPolicyDecide runs whole greedy episodes of the committed Cholesky
// T=8 2c2g checkpoint on the default policy (incremental encoder, memo) and
// the reference policy (rebuild, no memo), both on an inference tape, and
// reports time and allocations per decision. The two rows come from one
// process, so their ratio means something where the absolute numbers do not.
func BenchmarkPolicyDecide(b *testing.B) {
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	if _, err := agent.LoadCheckpoint("../../models/readys_cholesky_T8_2c2g_w2_l2_h32.json"); err != nil {
		b.Fatal(err)
	}
	prob := NewProblem(taskgraph.Cholesky, 8, 2, 2, 0.1)
	for _, c := range []struct {
		name string
		pol  *Policy
	}{
		{"float64", NewPolicy(agent)},
		{"reference", NewReferencePolicy(agent)},
	} {
		b.Run(c.name, func(b *testing.B) {
			rn, rng := new(sim.Runner), rand.New(rand.NewSource(2))
			episode := func() {
				if _, err := prob.SimulateOn(rn, c.pol, rng); err != nil {
					b.Fatal(err)
				}
			}
			episode() // warm the policy's and the runner's buffers
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decisions := c.pol.Stats.Decisions
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				episode()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(c.pol.Stats.Decisions - decisions)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/decision")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/decision")
		})
	}
}
