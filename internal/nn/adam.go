package nn

import (
	"math"

	"readys/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba). The paper trains READYS
// with Adam at learning rate 0.01 and PyTorch-default β/ε, which are the
// defaults here.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	step int
	m    map[*Param]*tensor.Matrix
	v    map[*Param]*tensor.Matrix
}

// NewAdam returns an Adam optimizer with the paper's learning rate and the
// PyTorch defaults β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Epsilon: 1e-8,
		m:       make(map[*Param]*tensor.Matrix),
		v:       make(map[*Param]*tensor.Matrix),
	}
}

// Step applies one Adam update to every parameter in the set using the
// gradients currently stored in Param.Grad, then leaves the gradients
// untouched (call ParamSet.ZeroGrad before the next accumulation).
func (a *Adam) Step(params *ParamSet) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params.All() {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Rows, p.Value.Cols)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Rows, p.Value.Cols)
		}
		v := a.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = float64(a.Beta1*m.Data[i]) + float64((1-a.Beta1)*g)
			v.Data[i] = float64(a.Beta2*v.Data[i]) + float64((1-a.Beta2)*g*g)
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			p.Value.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon)
		}
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam) StepCount() int { return a.step }

// SGD is a plain stochastic-gradient-descent optimizer, used as an ablation
// and in optimizer unit tests.
type SGD struct {
	LR       float64
	Momentum float64
	vel      map[*Param]*tensor.Matrix
}

// NewSGD returns an SGD optimizer with optional momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, vel: make(map[*Param]*tensor.Matrix)}
}

// Step applies one SGD update using the gradients in Param.Grad.
func (s *SGD) Step(params *ParamSet) {
	for _, p := range params.All() {
		if s.Momentum == 0 {
			tensor.AddScaledInPlace(p.Value, p.Grad, -s.LR)
			continue
		}
		v, ok := s.vel[p]
		if !ok {
			v = tensor.New(p.Value.Rows, p.Value.Cols)
			s.vel[p] = v
		}
		for i, g := range p.Grad.Data {
			v.Data[i] = float64(s.Momentum*v.Data[i]) + g
			p.Value.Data[i] -= float64(s.LR * v.Data[i])
		}
	}
}

// Optimizer is the interface shared by Adam and SGD.
type Optimizer interface {
	Step(params *ParamSet)
}
