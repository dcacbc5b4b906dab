package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"readys/internal/autograd"
	"readys/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, "fc", 5, 3)
	b := NewBinding()
	x := b.Tape.Const(tensor.RandNormal(rng, 7, 5, 1))
	y := l.Forward(b, x, nil)
	if y.Value.Rows != 7 || y.Value.Cols != 3 {
		t.Fatalf("Linear output %dx%d, want 7x3", y.Value.Rows, y.Value.Cols)
	}
}

func TestLinearMatchesManualCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, "fc", 2, 2)
	b := NewBinding()
	x := tensor.FromSlice(1, 2, []float64{1, -1})
	y := l.Forward(b, b.Tape.Const(x), nil)
	want := tensor.New(x.Rows, l.W.Value.Cols)
	tensor.AddRowVectorInto(tensor.MatMul(x, l.W.Value), l.B.Value, want)
	if !y.Value.AllClose(want, 1e-12) {
		t.Fatal("Linear forward diverges from manual compute")
	}
}

func TestBindingReturnsSameNodeAndAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParam("w", tensor.RandNormal(rng, 2, 2, 1))
	b := NewBinding()
	n1 := b.Bind(p)
	n2 := b.Bind(p)
	if n1 != n2 {
		t.Fatal("Bind must return the same node for the same param")
	}
	// y = sum(w) + sum(w) → dy/dw = 2 everywhere.
	y := b.Tape.Add(b.Tape.SumAll(n1), b.Tape.SumAll(n2))
	b.Tape.Backward(y)
	for _, g := range p.Grad.Data {
		if g != 2 {
			t.Fatalf("grad = %v, want 2", g)
		}
	}
}

func TestParamSetDuplicatePanics(t *testing.T) {
	s := NewParamSet()
	s.Add(NewParam("a", tensor.New(1, 1)))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name should panic")
		}
	}()
	s.Add(NewParam("a", tensor.New(1, 1)))
}

func TestParamSetClipGradNorm(t *testing.T) {
	s := NewParamSet()
	p := NewParam("a", tensor.New(1, 2))
	p.Grad = tensor.FromSlice(1, 2, []float64{3, 4}) // norm 5
	s.Add(p)
	pre := s.ClipGradNorm(1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	if math.Abs(s.GradNorm()-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", s.GradNorm())
	}
	// Below the threshold nothing changes.
	if got := s.ClipGradNorm(10); math.Abs(got-1) > 1e-12 {
		t.Fatalf("second clip returned %v", got)
	}
}

func TestNormalizedAdjacencyProperties(t *testing.T) {
	// Path graph 0→1→2.
	norm := NormalizedAdjacency(3, [][]int{{1}, {2}, {}}).Dense()
	// Must be symmetric with self-loops.
	for i := 0; i < 3; i++ {
		if norm.At(i, i) == 0 {
			t.Fatalf("missing self-loop at %d", i)
		}
		for j := 0; j < 3; j++ {
			if math.Abs(norm.At(i, j)-norm.At(j, i)) > 1e-12 {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Node 0 has degree 2 (self + edge to 1): norm[0,0] = 1/2.
	if math.Abs(norm.At(0, 0)-0.5) > 1e-12 {
		t.Fatalf("norm[0,0] = %v, want 0.5", norm.At(0, 0))
	}
	// Disconnected node keeps unit self weight.
	iso := NormalizedAdjacency(1, [][]int{{}}).Dense()
	if iso.At(0, 0) != 1 {
		t.Fatalf("isolated self-loop weight %v", iso.At(0, 0))
	}
}

func TestNormalizedAdjacencySpectralBoundProperty(t *testing.T) {
	// Rows of D^-1/2 A D^-1/2 sum to at most sqrt(deg) ratios; a simpler
	// robust invariant: all entries are in [0,1] and the matrix is symmetric.
	rng := rand.New(rand.NewSource(4))
	f := func(n8 uint8) bool {
		n := int(n8%10) + 2
		succ := make([][]int, n)
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					succ[i] = append(succ[i], j)
				}
			}
		}
		m := NormalizedAdjacency(n, succ).Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := m.At(i, j)
				if v < 0 || v > 1 || math.Abs(v-m.At(j, i)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGCNForwardDepthPropagation(t *testing.T) {
	// On a path 0→1→2, one GCN layer mixes only direct neighbours: node 2's
	// output must not depend on node 0's features, but with two layers it must.
	rng := rand.New(rand.NewSource(5))
	g1 := NewGCN(rng, "g1", 1, 4)
	g2 := NewGCN(rng, "g2", 4, 4)
	norm := NormalizedAdjacency(3, [][]int{{1}, {2}, {}})

	run := func(x0 float64, layers int) []float64 {
		b := NewBinding()
		x := b.Tape.Const(tensor.FromSlice(3, 1, []float64{x0, 1, 1}))
		h := g1.Forward(b, norm, x, nil)
		if layers == 2 {
			h = g2.Forward(b, norm, h, nil)
		}
		return append([]float64(nil), h.Value.Row(2)...)
	}
	a1 := run(0, 1)
	b1 := run(100, 1)
	for i := range a1 {
		if a1[i] != b1[i] {
			t.Fatal("1-layer GCN leaked information beyond distance 1")
		}
	}
	a2 := run(0, 2)
	b2 := run(100, 2)
	same := true
	for i := range a2 {
		if a2[i] != b2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("2-layer GCN should propagate information across two hops")
	}
}

// denseGCN is the layer written against the materialised operator:
// ReLU(MatMul(MatMul(Dense(norm), h), W) + b), every product a dense one — the
// oracle GCN.Forward's CSR propagation is held to.
func denseGCN(g *GCN, b *Binding, norm *tensor.Matrix, h *autograd.Node) *autograd.Node {
	agg := b.Tape.MatMulSeg(b.Tape.Const(norm), h, nil)
	lin := b.Tape.AddRowVectorSeg(b.Tape.MatMulSeg(agg, b.Bind(g.W), nil), b.Bind(g.B), nil)
	return b.Tape.ReLU(lin)
}

// TestGCNForwardMatchesDenseComposition: propagating through the CSR operator
// gives the layer's output and, after Backward, the gradients of h, W and b
// the bits the dense composition gives. Equality is exact because both
// accumulate every output element in ascending column order and the zero
// terms the CSR form skips cannot change an IEEE sum. (The kernels alone: tensor.TestSpMMMatchesDenseProperty,
// TestSpMMTransAMatchesDense.)
func TestGCNForwardMatchesDenseComposition(t *testing.T) {
	const n, in, out = 14, 6, 5
	succ := make([][]int, n)
	for i := 0; i+1 < n; i++ {
		succ[i] = append(succ[i], i+1)
		if j := i + 4; j < n {
			succ[i] = append(succ[i], j)
		}
	}
	norm := NormalizedAdjacency(n, succ)
	rng := rand.New(rand.NewSource(17))
	x := tensor.RandNormal(rng, n, in, 1)
	weight := tensor.RandNormal(rng, n, out, 1)
	run := func(dense bool) (g *GCN, y, dh *tensor.Matrix) {
		g = NewGCN(rand.New(rand.NewSource(18)), "g", in, out)
		b := NewBinding()
		h := b.Tape.Var(x)
		var o *autograd.Node
		if dense {
			o = denseGCN(g, b, norm.Dense(), h)
		} else {
			o = g.Forward(b, norm, h, nil)
		}
		b.Tape.Backward(b.Tape.SumAll(b.Tape.Mul(o, b.Tape.Const(weight))))
		return g, o.Value, h.Grad
	}
	sg, sy, sdh := run(false)
	dg, dy, ddh := run(true)
	for _, c := range []struct {
		what      string
		got, want *tensor.Matrix
	}{
		{"output", sy, dy}, {"dL/dh", sdh, ddh}, {"dL/dW", sg.W.Grad, dg.W.Grad}, {"dL/db", sg.B.Grad, dg.B.Grad},
	} {
		if !c.got.SameShape(c.want) {
			t.Fatalf("%s is %dx%d on CSR, %dx%d dense", c.what, c.got.Rows, c.got.Cols, c.want.Rows, c.want.Cols)
		}
		for i, v := range c.got.Data {
			if math.Float64bits(v) != math.Float64bits(c.want.Data[i]) {
				t.Fatalf("%s[%d] = %v on CSR, %v dense", c.what, i, v, c.want.Data[i])
			}
		}
	}
	if sdh.Equal(tensor.New(n, in)) || sg.W.Grad.Equal(tensor.New(in, out)) {
		t.Fatal("a zero gradient compares nothing")
	}
}

// TestInferenceBindingMatchesFreshTapes: passes on one inference binding — a
// larger graph after a smaller one, so every output slot grows, then smaller
// ones, so slots are reused dirty — give the bits of the same passes on fresh
// gradient tapes over a copy of the layers, record no node that requires a
// gradient, and leave every parameter they read without a gradient buffer.
func TestInferenceBindingMatchesFreshTapes(t *testing.T) {
	type net struct {
		in, score, idle *Linear
		g               *GCN
		params          []*Param
	}
	build := func() net {
		rng := rand.New(rand.NewSource(21))
		m := net{in: NewLinear(rng, "in", 3, 8), g: NewGCN(rng, "g", 8, 8)}
		m.score, m.idle = NewLinear(rng, "score", 8, 1), NewLinear(rng, "idle", 16, 1)
		for _, ps := range [][]*Param{m.in.Params(), m.g.Params(), m.score.Params(), m.idle.Params()} {
			m.params = append(m.params, ps...)
		}
		return m
	}
	pass := func(m net, b *Binding, n int) *autograd.Node {
		x := tensor.RandNormal(rand.New(rand.NewSource(int64(n))), n, 3, 1)
		succ := make([][]int, n)
		for i := 0; i+1 < n; i++ {
			succ[i] = []int{i + 1}
		}
		tp := b.Tape
		h := m.g.Forward(b, NormalizedAdjacency(n, succ), m.in.ForwardReLU(b, tp.Const(x), nil), nil)
		pooled := tp.ConcatCols(tp.SegmentMeanRows(h, nil), tp.SegmentMaxRows(h, nil))
		scores := tp.ConcatRows(m.score.Forward(b, tp.GatherRows(h, []int{n - 1, 0}), nil), m.idle.Forward(b, pooled, nil))
		return tp.ConcatRows(tp.SegmentLogSoftmax(scores, nil), tp.Scale(tp.SumAll(h), 0.5))
	}
	served, fresh := build(), build()
	inf := NewInferenceBinding()
	for _, n := range []int{3, 11, 2, 5} {
		inf.Reset()
		got, want := pass(served, inf, n), pass(fresh, NewBinding(), n)
		if got.RequiresGrad() {
			t.Fatalf("n=%d: a pass on an inference binding requires a gradient", n)
		}
		if !got.Value.SameShape(want.Value) {
			t.Fatalf("n=%d: %dx%d on the inference binding, %dx%d fresh", n, got.Value.Rows, got.Value.Cols, want.Value.Rows, want.Value.Cols)
		}
		for i, v := range got.Value.Data {
			if math.Float64bits(v) != math.Float64bits(want.Value.Data[i]) {
				t.Fatalf("n=%d: output %d is %v on the inference binding, %v fresh", n, i, v, want.Value.Data[i])
			}
		}
	}
	for _, p := range served.params {
		if p.Grad != nil {
			t.Fatalf("%s has a %dx%d gradient buffer after inference passes only", p.Name, p.Grad.Rows, p.Grad.Cols)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise ||w - target||² — Adam must converge fast.
	target := tensor.FromSlice(1, 3, []float64{1, -2, 0.5})
	p := NewParam("w", tensor.New(1, 3))
	set := NewParamSet()
	set.Add(p)
	opt := NewAdam(0.05)
	for it := 0; it < 500; it++ {
		set.ZeroGrad()
		for i := range p.Grad.Data {
			p.Grad.Data[i] = 2 * (p.Value.Data[i] - target.Data[i])
		}
		opt.Step(set)
	}
	if !p.Value.AllClose(target, 1e-2) {
		t.Fatalf("Adam did not converge: %v", p.Value)
	}
}

func TestEndToEndRegression(t *testing.T) {
	// Fit y = relu-net(x) to a linear function; verifies Binding+Backward+Adam
	// work together through a multi-layer graph.
	rng := rand.New(rand.NewSource(6))
	l1 := NewLinear(rng, "l1", 2, 16)
	l2 := NewLinear(rng, "l2", 16, 1)
	set := NewParamSet()
	set.Add(l1.Params()...)
	set.Add(l2.Params()...)
	opt := NewAdam(0.01)

	targetFn := func(x0, x1 float64) float64 { return 2*x0 - x1 + 0.5 }
	var loss float64
	for it := 0; it < 600; it++ {
		x := tensor.New(8, 2)
		y := tensor.New(8, 1)
		for i := 0; i < 8; i++ {
			x.Set(i, 0, rng.Float64()*2-1)
			x.Set(i, 1, rng.Float64()*2-1)
			y.Set(i, 0, targetFn(x.At(i, 0), x.At(i, 1)))
		}
		b := NewBinding()
		h := b.Tape.ReLU(l1.Forward(b, b.Tape.Const(x), nil))
		pred := l2.Forward(b, h, nil)
		diff := b.Tape.Sub(pred, b.Tape.Const(y))
		mse := b.Tape.Scale(b.Tape.SumAll(b.Tape.Square(diff)), 1.0/8)
		set.ZeroGrad()
		b.Tape.Backward(mse)
		opt.Step(set)
		loss = autograd.Scalar(mse)
	}
	if loss > 0.01 {
		t.Fatalf("regression did not fit: final loss %v", loss)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(rng, "fc", 3, 2)
	src := NewParamSet()
	src.Add(l.Params()...)

	var buf bytes.Buffer
	meta := map[string]string{"kernel": "cholesky", "T": "8"}
	if err := SaveCheckpoint(&buf, src, meta); err != nil {
		t.Fatal(err)
	}

	l2 := NewLinear(rand.New(rand.NewSource(99)), "fc", 3, 2)
	dst := NewParamSet()
	dst.Add(l2.Params()...)
	gotMeta, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta["kernel"] != "cholesky" || gotMeta["T"] != "8" {
		t.Fatalf("meta round trip failed: %v", gotMeta)
	}
	if !l2.W.Value.Equal(l.W.Value) || !l2.B.Value.Equal(l.B.Value) {
		t.Fatal("values not restored")
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := NewParamSet()
	src.Add(NewParam("w", tensor.RandNormal(rng, 2, 2, 1)))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src, nil); err != nil {
		t.Fatal(err)
	}
	dst := NewParamSet()
	dst.Add(NewParam("w", tensor.New(3, 3)))
	if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestCheckpointMissingParam(t *testing.T) {
	src := NewParamSet()
	src.Add(NewParam("w", tensor.New(1, 1)))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src, nil); err != nil {
		t.Fatal(err)
	}
	dst := NewParamSet()
	dst.Add(NewParam("other", tensor.New(1, 1)))
	if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst); err == nil {
		t.Fatal("missing param should error")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := NewParamSet()
	src.Add(NewParam("w", tensor.RandNormal(rng, 4, 4, 1)))
	path := t.TempDir() + "/ckpt.json"
	if err := SaveCheckpointFile(path, src, map[string]string{"a": "b"}); err != nil {
		t.Fatal(err)
	}
	dst := NewParamSet()
	dst.Add(NewParam("w", tensor.New(4, 4)))
	meta, err := LoadCheckpointFile(path, dst)
	if err != nil {
		t.Fatal(err)
	}
	if meta["a"] != "b" || !dst.All()[0].Value.Equal(src.All()[0].Value) {
		t.Fatal("file round trip failed")
	}
}
