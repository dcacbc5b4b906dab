package nn

import "readys/internal/tensor"

// ServingLayer holds a float32 copy of one Linear or GCN layer's weights for
// the inference-only forward path. The float64 Params stay the source of truth
// — conversion happens once when a serving engine is built, and training
// never reads these copies.
type ServingLayer struct {
	W32 tensor.Matrix32
	B32 tensor.Matrix32
}

// NewServingLayer converts a layer's float64 weights and bias.
func NewServingLayer(w, b *Param) *ServingLayer {
	l := &ServingLayer{}
	l.W32.SetFrom(w.Value)
	l.B32.SetFrom(b.Value)
	return l
}
