package autograd

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"readys/internal/tensor"
)

// mustPanic fails unless f panics with a message that contains want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s panicked with %v, want a message with %q", what, r, want)
		}
	}()
	f()
}

// TestDropContract pins what Drop promises. A dropped node's buffer is the
// next output's of its size class, and the node keeps its shape but no data:
// reading it, directly or through an op, panics. Drop refuses, and leaves the
// node as it was, where values would be lost that someone reads: a leaf's
// (the caller's), an Exp output's (its own backward reads it), and a node a
// recorded MatMulSeg, LinearReLUSeg, Mul, ReLU or Square step reads. On an
// inference tape Drop changes nothing: outputs are positional slots there.
func TestDropContract(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tp := NewTape()
	sp := randomSparseOperator(rng, 6)
	x := tp.Var(randMat(rng, 6, 5))
	w := tp.Param(randMat(rng, 5, 8), tensor.New(5, 8))
	wq := tp.Param(randMat(rng, 8, 8), tensor.New(8, 8))
	b := tp.Param(randMat(rng, 1, 8), tensor.New(1, 8))
	h := tp.LinearReLUSeg(x, w, b, nil)
	s := tp.SpMM(sp, h)
	buf := h.Value
	tp.Drop(h)
	if h.Value == buf || h.Value.Rows != 6 || h.Value.Cols != 8 {
		t.Fatalf("a dropped 6x8 node kept its buffer or lost its shape: %dx%d", h.Value.Rows, h.Value.Cols)
	}
	h2 := tp.LinearReLUSeg(s, wq, b, nil)
	if h2.Value != buf {
		t.Fatal("the next output of the dropped buffer's size class did not take it")
	}
	tp.Drop(h) // a second Drop is a no-op
	mustPanic(t, "reading a dropped node", "index out of range", func() { _ = h.Value.At(0, 0) })
	mustPanic(t, "an op on a dropped node", "dropped", func() { tp.Add(h, h) })
	mustPanic(t, "ConcatRows of a dropped node", "dropped", func() { tp.ConcatRows(h2, h) })

	for _, c := range []struct {
		what string
		n    func() *Node
	}{
		{"a Var", func() *Node { return x }},
		{"a Param", func() *Node { return w }},
		{"a Const", func() *Node { return tp.Const(randMat(rng, 6, 8)) }},
	} {
		mustPanic(t, "Drop of "+c.what, "leaf", func() { tp.Drop(c.n()) })
	}
	reads := []struct {
		what   string
		record func(n *Node)
	}{
		{"an Exp output", func(*Node) {}},
		{"MatMulSeg's input", func(n *Node) { tp.MatMulSeg(n, wq, nil) }},
		{"LinearReLUSeg's input", func(n *Node) { tp.LinearReLUSeg(n, wq, b, nil) }},
		{"Mul's input", func(n *Node) { tp.Mul(n, tp.Const(randMat(rng, 6, 8))) }},
		{"ReLU's input", func(n *Node) { tp.ReLU(n) }},
		{"Square's input", func(n *Node) { tp.Square(n) }},
	}
	for i, c := range reads {
		n := tp.LinearReLUSeg(x, w, b, nil)
		if i == 0 {
			n = tp.Exp(n)
		}
		c.record(n)
		val := n.Value
		mustPanic(t, "Drop of "+c.what, "reads", func() { tp.Drop(n) })
		if n.Value != val || n.dropped {
			t.Fatalf("a refused Drop of %s changed the node", c.what)
		}
	}

	inf := NewInferenceTape()
	in := inf.Const(randMat(rng, 6, 5))
	hi := inf.LinearReLUSeg(in, inf.Const(w.Value), inf.Const(b.Value), nil)
	val, want := hi.Value, clone(hi.Value)
	inf.Drop(hi)
	inf.Drop(in)
	next := inf.LinearReLUSeg(in, inf.Const(w.Value), inf.Const(b.Value), nil)
	if hi.Value != val || hi.dropped || next.Value == val {
		t.Fatal("Drop on an inference tape moved a node's slot")
	}
	mustSameBits(t, "an inference output after Drop", hi.Value, want)
}
