package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"readys/internal/autograd"
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

// BenchmarkLinearForwardBackward times a dense layer ReLU(x·W + b), forward
// and backward on a reused tape, as three tape nodes and as the fused one, at
// one decision's window (49 rows) and at the stacked height of one T=6
// episode's update (4 000 rows), hidden 32. x takes a gradient, as a GCN
// layer's input does.
func BenchmarkLinearForwardBackward(b *testing.B) {
	for _, rows := range []int{49, 4000} {
		rng := rand.New(rand.NewSource(2))
		l := NewLinear(rng, "l", 32, 32)
		x := tensor.RandNormal(rng, rows, 32, 1)
		for _, layer := range []struct {
			name    string
			forward func(*Binding, *autograd.Node) *autograd.Node
		}{
			{"three-ops", func(bind *Binding, x *autograd.Node) *autograd.Node { return bind.Tape.ReLU(l.Forward(bind, x, nil)) }},
			{"fused", func(bind *Binding, x *autograd.Node) *autograd.Node { return l.ForwardReLU(bind, x, nil) }},
		} {
			b.Run(fmt.Sprintf("%s/%dx32*32x32", layer.name, rows), func(b *testing.B) {
				bind := NewBinding()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bind.Reset()
					tp := bind.Tape
					tp.Backward(tp.SumAll(tp.Square(layer.forward(bind, tp.Var(x)))))
				}
			})
		}
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
