package nn

import (
	"math/rand"
	"testing"

	"readys/internal/tensor"
)

func BenchmarkGCNForward(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(sizeName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := NewGCN(rng, "g", 64, 64)
			succ := make([][]int, n)
			for i := 0; i+1 < n; i++ {
				succ[i] = []int{i + 1}
			}
			norm := NormalizedAdjacency(n, succ)
			x := tensor.RandNormal(rng, n, 64, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bind := NewBinding()
				g.Forward(bind, norm, bind.Tape.Const(x), nil)
				bind.Release()
			}
		})
	}
}

func BenchmarkLinearForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, "l", 64, 64)
	x := tensor.RandNormal(rng, 32, 64, 1)
	set := NewParamSet()
	set.Add(l.Params()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bind := NewBinding()
		out := bind.Tape.SumAll(bind.Tape.Square(l.Forward(bind, bind.Tape.Const(x), nil)))
		bind.Tape.Backward(out)
		set.ZeroGrad()
	}
}

func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	set := NewParamSet()
	for i := 0; i < 8; i++ {
		p := NewParam(string(rune('a'+i)), tensor.RandNormal(rng, 64, 64, 1))
		p.Grad = tensor.RandNormal(rng, 64, 64, 0.1)
		set.Add(p)
	}
	opt := NewAdam(0.003)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(set)
	}
}

func BenchmarkNormalizedAdjacency(b *testing.B) {
	succ := make([][]int, 128)
	for i := 0; i+1 < 128; i++ {
		succ[i] = []int{i + 1, (i * 7) % 128}
		if succ[i][1] == i {
			succ[i] = succ[i][:1]
		}
	}
	// Drop any accidental back-edges to keep it a DAG-ish structure; the
	// function itself only needs index bounds.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NormalizedAdjacency(128, succ)
	}
}

func sizeName(n int) string {
	switch n {
	case 16:
		return "n=16"
	case 64:
		return "n=64"
	default:
		return "n=256"
	}
}
