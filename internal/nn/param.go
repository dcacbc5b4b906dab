// Package nn provides the neural-network building blocks used by the READYS
// agent: trainable parameters, linear and graph-convolution layers
// (Kipf–Welling GCN), the Adam optimizer, gradient clipping and parameter
// (de)serialisation for transfer-learning checkpoints.
//
// Layers are stateless with respect to the computation graph: each forward
// pass binds the layer's parameters onto an autograd.Tape through a Binding,
// and Tape.Backward accumulates straight into the parameters' gradients.
package nn

import (
	"fmt"
	"math"

	"readys/internal/autograd"
	"readys/internal/tensor"
)

// Param is a named trainable matrix together with its gradient accumulator.
// Only training needs the accumulator, so Grad stays nil until a gradient
// tape binds the parameter or ZeroGrad runs; a parameter that only ever
// infers (a served checkpoint) holds its values alone.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// NewParam wraps value as a parameter with no gradient buffer yet.
func NewParam(name string, value *tensor.Matrix) *Param {
	return &Param{Name: name, Value: value}
}

// ZeroGrad resets the gradient accumulator, allocating it on first use.
func (p *Param) ZeroGrad() {
	if p.Grad == nil {
		p.Grad = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	p.Grad.Zero()
}

// Binding ties parameters to a single autograd tape. Binding the same
// parameter twice returns the same node, so gradient contributions from
// every use site accumulate correctly. A parameter's node takes the
// parameter's own Grad as its accumulator (autograd.Tape.Param), allocated
// when the parameter has none, so after Tape.Backward the gradient is already
// where the optimiser reads it, added onto whatever earlier passes left there.
type Binding struct {
	Tape  *autograd.Tape
	nodes map[*Param]*autograd.Node
}

// NewBinding returns a Binding over a fresh tape.
func NewBinding() *Binding {
	return &Binding{Tape: autograd.NewTape(), nodes: make(map[*Param]*autograd.Node)}
}

// NewInferenceBinding returns a Binding for passes that take no gradient, over
// an inference tape (autograd.NewInferenceTape). It binds every parameter as a
// constant: no node of its passes requires a gradient or records a backward
// step, and no Param.Grad is ever touched or allocated, so passes on any number
// of inference bindings may share the parameters.
func NewInferenceBinding() *Binding {
	return &Binding{Tape: autograd.NewInferenceTape()}
}

// Bind returns the tape node for p, creating it on first use; an inference
// binding records p as a constant at every use.
func (b *Binding) Bind(p *Param) *autograd.Node {
	if b.nodes == nil {
		return b.Tape.Const(p.Value)
	}
	if n, ok := b.nodes[p]; ok {
		return n
	}
	if p.Grad == nil {
		p.ZeroGrad()
	}
	n := b.Tape.Param(p.Value, p.Grad)
	b.nodes[p] = n
	return n
}

// Reset empties the binding's tape for another forward pass, keeping the
// tape's buffers (see autograd.Tape.Reset). Nodes of the previous pass must
// not be used afterwards.
func (b *Binding) Reset() {
	b.Tape.Reset()
	clear(b.nodes)
}

// Release returns every pooled intermediate of the binding's tape to the
// buffer pool. Call it once the forward pass's outputs have been consumed.
// The binding and its nodes must not be used afterwards. A nil binding has
// nothing to release: a core.Step recorded off the tape carries one.
func (b *Binding) Release() {
	if b != nil {
		b.Tape.Release()
	}
}

// ParamSet is an ordered collection of parameters: the unit of optimisation
// and serialisation.
type ParamSet struct {
	params []*Param
}

// NewParamSet returns an empty set.
func NewParamSet() *ParamSet { return &ParamSet{} }

// Add registers params; duplicate names panic since checkpoints key on them.
func (s *ParamSet) Add(params ...*Param) {
	for _, p := range params {
		for _, q := range s.params {
			if q.Name == p.Name {
				panic(fmt.Sprintf("nn: duplicate parameter name %q", p.Name))
			}
		}
		s.params = append(s.params, p)
	}
}

// All returns the parameters in registration order.
func (s *ParamSet) All() []*Param { return s.params }

// ZeroGrad clears every gradient in the set.
func (s *ParamSet) ZeroGrad() {
	for _, p := range s.params {
		p.ZeroGrad()
	}
}

// GradNorm returns the global L2 norm over every gradient in the set.
func (s *ParamSet) GradNorm() float64 {
	var sq float64
	for _, p := range s.params {
		sq += tensor.Dot(p.Grad, p.Grad)
	}
	return math.Sqrt(sq)
}

// ClipGradNorm rescales all gradients so the global norm does not exceed max.
// It returns the pre-clip norm.
func (s *ParamSet) ClipGradNorm(max float64) float64 {
	norm := s.GradNorm()
	if norm > max && norm > 0 {
		scale := max / norm
		for _, p := range s.params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
	}
	return norm
}
