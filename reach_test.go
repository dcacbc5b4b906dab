package readys_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachAllowed names the exported internal/ declarations that no non-test
// code uses and the fields that no non-test code sets, but that stay: a test
// compares the library against them, an interface calls them without naming
// them, or a later change decides them. Keys are pkg.Name, pkg.Type.Method or
// pkg.Type.Field; each reason names the user.
var reachAllowed = map[string]string{
	// References the equivalence tests hold the fused, segment and sparse
	// paths to.
	"autograd.Tape.ReLU":         "autograd TestLinearReLUSegMatchesThreeOps: the three-op reference of LinearReLUSeg",
	"autograd.Tape.Var":          "autograd TestLinearReLUSegMatchesThreeOps and the gradient checks: a differentiable leaf",
	"autograd.Tape.Pick":         "rl accumulatePerDecision (TestBatchedUpdateBitIdentical): the per-decision tape reference",
	"autograd.Tape.AddConst":     "rl accumulatePerDecision (TestBatchedUpdateBitIdentical): the per-decision tape reference",
	"autograd.Node.RequiresGrad": "nn TestInferenceBindingMatchesFreshTapes: a pass on an inference binding requires no gradient",
	"core.NewReferencePolicy":    "root TestDifferential, its reference and recording relations: the full-rebuild oracle",
	"tensor.MatMulTransA":        "tensor TestMatMulTransA and TestSpMMTransAMatchesDense: the dense reference of the fused ∂W products",
	"tensor.Sparse.Dense":        "autograd TestSpMMMatchesDenseOnTape and nn TestGCNForwardMatchesDenseComposition: the dense reference of a sparse product",
	"tensor.SparseFromDense":     "tensor TestSpMMMatchesDenseProperty and autograd TestGradSpMM: a sparse operand from a dense fixture",
	// What the retirement tests bound.
	"taskgraph.DescendantAccumulator.Held": "core TestIncrementalRetiresFinishedJobs and taskgraph TestDescendantAccumulatorRetireMatchesOracle: F̄ rows, like the encoder's scratch (LiveRows.Held), stay within twice the most tasks ever live",
	// Fixtures the tests of several packages share.
	"taskgraph.NewLayeredRandom":    "root TestChaosAllPoliciesSurviveRandomFaults, sched TestValidOnRandomDAGsProperty, sim TestSimulateRandomDAGs: random layered DAGs",
	"taskgraph.DefaultRandomConfig": "root TestDifferential (its fault-free random DAGs), sched and sim random-DAG tests: the shape of NewLayeredRandom's DAGs",
	"obs.NewTraceID":                "gateway TestGatewayFailoverChaos and obs tests: the trace ID a client sends",
	"tensor.FromSlice":              "tensor, autograd and nn tests: a matrix from literal values",
	"tensor.Matrix.Set":             "tensor, autograd and nn tests: one element of a fixture",
	"tensor.Matrix.AllClose":        "tensor TestMatMulMatchesNaiveProperty and nn TestLinearMatchesManualCompute: comparison within a tolerance",
	"tensor.Matrix.Equal":           "tensor, autograd, nn and core tests: bitwise comparison of matrices",
	"tensor.Sparse.Equal":           "tensor and core tests: bitwise comparison of sparse operators",
	"sim.NewState":                  "core tests (initialState, faultedState): the state a run starts from, encoded outside a run",
	// Methods the standard library calls through an interface.
	"obs.metricKind.String":             "fmt.Stringer: the %s of a family's # TYPE line in Registry.WriteText",
	"platform.Platform.String":          "fmt.Stringer: the %s of the platform in cmd/readys-sim, cmd/readys-stream and examples/quickstart",
	"gateway.dagPresence.UnmarshalJSON": "encoding/json.Unmarshaler: the head decode of a request body",
	"taskgraph.Kind.MarshalJSON":        "encoding/json.Marshaler: a kind in a stream arrival trace (stream.Arrival)",
	"taskgraph.Kind.UnmarshalJSON":      "encoding/json.Unmarshaler: a kind in a stream arrival trace (stream.Arrival)",
	// Fields a later change decides.
	"core.Config.Directed":      "benchmark/probes.go passes it; it refuses true",
	"core.Config.FaultFeatures": "the fault-features experiment (ROADMAP) keeps it with a trained checkpoint or deletes it",
}

// goFile is a parsed Go file of a tree and its package's directory, relative
// to the tree's root.
type goFile struct {
	dir string
	ast *ast.File
}

// parseTree parses every Go file under root, nested modules included, whose
// name has the _test.go suffix exactly when tests is set. Directories named
// testdata or starting with a dot are skipped.
func parseTree(t *testing.T, fset *token.FileSet, root string, tests bool) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		files = append(files, goFile{filepath.ToSlash(rel), f})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheckTree type-checks the non-test files under root that build on this
// platform. A package's import path is module followed by its directory; the
// standard library comes from the compiler's export data.
func typeCheckTree(t *testing.T, fset *token.FileSet, root, module string) ([]goFile, *types.Info) {
	t.Helper()
	var files []goFile
	byDir := map[string][]*ast.File{}
	for _, f := range parseTree(t, fset, root, false) {
		name := fset.File(f.ast.Pos()).Name()
		if ok, err := build.Default.MatchFile(filepath.Dir(name), filepath.Base(name)); err != nil {
			t.Fatal(err)
		} else if ok {
			files = append(files, f)
			byDir[f.dir] = append(byDir[f.dir], f.ast)
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkgs := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		dir, local := strings.CutPrefix(path+"/", module+"/")
		if !local {
			return std.Import(path)
		}
		if dir = strings.TrimSuffix(dir, "/"); dir == "" {
			dir = "."
		}
		if pkgs[dir] == nil {
			var err error
			if pkgs[dir], err = (&types.Config{Importer: imp}).Check(path, fset, byDir[dir], info); err != nil {
				return nil, err
			}
		}
		return pkgs[dir], nil
	}
	for dir := range byDir {
		if _, err := imp(strings.TrimSuffix(module+"/"+dir, "/.")); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
	}
	return files, info
}

// reachDecl is a top-level declaration of an internal package, held by
// nothing, or an exported, untagged field of one of its structs, held by the
// struct's type.
type reachDecl struct {
	key         string
	obj, holder types.Object
}

// reachFinding is what the check reports: an exported internal/ declaration
// that no reached non-test code uses ("unreached"), a field that none sets
// ("unset"), or an allowlist entry that names neither ("stale").
type reachFinding struct{ kind, key, pos string }

// checkReach judges the internal/ declarations of the tree under root, whose
// import paths start with module.
//
// A declaration is reached when a use outside it resolves to its object. A
// method is also reached through an interface: by a use of an interface
// method it implements for a type that some code converts to an interface —
// assigns, passes, returns or puts in a composite literal as one. A use
// counts from outside internal/ or from a reached declaration, so the check
// repeats until nothing more drops out, and a chain of declarations only
// each other use is found whole. Unexported declarations take part, but only
// exported ones are reported. A method of an unreached type is unreached.
// Allowlisted declarations stay reached.
//
// A field is set by a composite-literal key, a positional literal of its
// struct, an assignment, inc/dec or & whose selector chain passes through
// it, or a pointer-method call on it, from where a use would count.
func checkReach(t *testing.T, root, module string, allowed map[string]string) []reachFinding {
	fset := token.NewFileSet()
	files, info := typeCheckTree(t, fset, root, module)
	var decls []reachDecl
	// The holders each object is used from, each field set from and each
	// type converted to an interface from; a nil holder is outside internal/.
	uses, sets, boxes := map[types.Object][]types.Object{}, map[types.Object][]types.Object{}, map[types.Object][]types.Object{}
	for _, f := range files {
		internal := strings.HasPrefix(f.dir, "internal/")
		for _, decl := range f.ast.Decls {
			nodes := []ast.Node{decl}
			if gen, ok := decl.(*ast.GenDecl); ok {
				nodes = nodes[:0]
				for _, spec := range gen.Specs {
					nodes = append(nodes, spec)
				}
			}
			for _, node := range nodes {
				var holder types.Object
				if internal {
					holder, decls = declare(info, f.ast.Name.Name, node, decls)
				}
				scanUses(info, node, holder, uses, sets, boxes)
			}
		}
	}

	// The (interface method, converted type) pairs through which each
	// concrete method is reached.
	type via struct{ method, typ types.Object }
	dispatch := map[types.Object][]via{}
	for obj := range uses {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			iface := sig.Recv().Type().Underlying().(*types.Interface)
			for typ := range boxes {
				ptr := types.NewPointer(typ.Type())
				if m, _, _ := types.LookupFieldOrMethod(ptr, false, obj.Pkg(), obj.Name()); m != nil && types.Implements(ptr, iface) {
					dispatch[origin(m)] = append(dispatch[origin(m)], via{obj, typ})
				}
			}
		}
	}

	dead := map[types.Object]bool{}
	from := func(d reachDecl, holders []types.Object) bool {
		return slices.ContainsFunc(holders, func(h types.Object) bool { return h != d.obj && !dead[h] })
	}
	reached := func(d reachDecl) bool {
		return from(d, uses[d.obj]) || slices.ContainsFunc(dispatch[d.obj], func(v via) bool {
			return from(d, uses[v.method]) && from(d, boxes[v.typ])
		})
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, ok := allowed[d.key]; !ok && d.holder == nil && !dead[d.obj] && (dead[recvType(d.obj)] || !reached(d)) {
				dead[d.obj], changed = true, true
			}
		}
	}

	var findings []reachFinding
	keys := map[string]bool{}
	for _, d := range decls {
		keys[d.key] = true
		// fine: d would be reached or set without the allowlist.
		fine, kind := !dead[d.obj] && reached(d), "unreached"
		if d.holder != nil {
			fine, kind = dead[d.holder] || from(d, sets[d.obj]), "unset"
		}
		if _, ok := allowed[d.key]; ok && fine {
			findings = append(findings, reachFinding{"stale", d.key, ""})
		} else if !ok && !fine && d.obj.Exported() {
			findings = append(findings, reachFinding{kind, d.key, fset.Position(d.obj.Pos()).String()})
		}
	}
	for key, reason := range allowed {
		if !keys[key] || strings.TrimSpace(reason) == "" {
			findings = append(findings, reachFinding{"stale", key, ""})
		}
	}
	slices.SortFunc(findings, func(a, b reachFinding) int { return strings.Compare(a.key, b.key) })
	return findings
}

// declare appends what one top-level declaration of package pkg declares to
// decls, and returns the object that holds the declaration.
func declare(info *types.Info, pkg string, node ast.Node, decls []reachDecl) (types.Object, []reachDecl) {
	var holder types.Object
	add := func(id *ast.Ident, key string) {
		if obj := info.Defs[id]; obj != nil && id.Name != "_" && id.Name != "init" {
			decls = append(decls, reachDecl{pkg + "." + key, obj, nil})
			holder = obj
		}
	}
	switch node := node.(type) {
	case *ast.FuncDecl:
		if node.Recv != nil {
			add(node.Name, recvType(info.Defs[node.Name]).Name()+"."+node.Name.Name)
		} else {
			add(node.Name, node.Name.Name)
		}
	case *ast.TypeSpec:
		add(node.Name, node.Name.Name)
		if st, ok := node.Type.(*ast.StructType); ok && holder != nil {
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if fld.Tag == nil && id.IsExported() {
						decls = append(decls, reachDecl{pkg + "." + node.Name.Name + "." + id.Name, info.Defs[id], holder})
					}
				}
			}
		}
	case *ast.ValueSpec:
		for _, id := range node.Names {
			add(id, id.Name)
		}
	}
	return holder, decls
}

// scanUses records, under holder, every object node uses, every field it
// sets, and every named type it converts to an interface.
func scanUses(info *types.Info, node ast.Node, holder types.Object, uses, sets, boxes map[types.Object][]types.Object) {
	set := func(e ast.Expr) {
		for e != nil {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					sets[origin(sel.Obj())] = append(sets[origin(sel.Obj())], holder)
				}
				e = x.X
			default:
				e = nil
			}
		}
	}
	// box records the values that go where an interface is expected.
	box := func(targets []types.Type, values ...ast.Expr) {
		var vals []types.Type
		for _, v := range values {
			vals = append(vals, info.TypeOf(v))
		}
		if tup, ok := vals[0].(*types.Tuple); ok {
			vals = tupleTypes(tup)
		}
		for i, v := range vals {
			if ptr, ok := v.(*types.Pointer); ok {
				v = ptr.Elem()
			}
			if named, ok := v.(*types.Named); ok && i < len(targets) && targets[i] != nil && types.IsInterface(targets[i]) && !types.IsInterface(v) {
				boxes[named.Origin().Obj()] = append(boxes[named.Origin().Obj()], holder)
			}
		}
	}
	var walk func(n ast.Node, results *types.Tuple)
	walk = func(n ast.Node, results *types.Tuple) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Type, nil)
				walk(n.Body, info.TypeOf(n).(*types.Signature).Results())
				return false
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil {
					uses[origin(obj)] = append(uses[origin(obj)], holder)
				}
			case *ast.AssignStmt:
				var lhs []types.Type
				for _, e := range n.Lhs {
					set(e)
					lhs = append(lhs, info.TypeOf(e))
				}
				box(lhs, n.Rhs...)
			case *ast.ValueSpec:
				for _, v := range n.Values {
					box([]types.Type{info.TypeOf(n.Type)}, v)
				}
			case *ast.IncDecStmt:
				set(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					set(n.Key)
					set(n.Value)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					set(n.X)
				}
			case *ast.SelectorExpr:
				if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
					_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					if _, ptr := sel.Recv().(*types.Pointer); ptrRecv && !ptr {
						set(n.X)
					}
				}
			case *ast.CallExpr:
				if fun := info.Types[n.Fun]; fun.IsType() && len(n.Args) == 1 {
					box([]types.Type{fun.Type}, n.Args...)
				} else if sig, ok := fun.Type.Underlying().(*types.Signature); ok && len(n.Args) > 0 {
					box(params(sig, len(n.Args), n.Ellipsis.IsValid()), n.Args...)
				}
			case *ast.ReturnStmt:
				if results != nil && len(n.Results) > 0 {
					box(tupleTypes(results), n.Results...)
				}
			case *ast.CompositeLit:
				typ := info.TypeOf(n).Underlying()
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem().Underlying()
				}
				for i, elt := range n.Elts {
					kv, keyed := elt.(*ast.KeyValueExpr)
					if keyed {
						elt = kv.Value
					}
					switch typ := typ.(type) {
					case *types.Struct:
						var fld types.Object = typ.Field(i)
						if keyed {
							fld = info.Uses[kv.Key.(*ast.Ident)]
						}
						sets[origin(fld)] = append(sets[origin(fld)], holder)
						box([]types.Type{fld.Type()}, elt)
					case *types.Slice:
						box([]types.Type{typ.Elem()}, elt)
					case *types.Array:
						box([]types.Type{typ.Elem()}, elt)
					case *types.Map:
						box([]types.Type{typ.Key()}, kv.Key)
						box([]types.Type{typ.Elem()}, elt)
					}
				}
			}
			return true
		})
	}
	if fn, ok := node.(*ast.FuncDecl); ok {
		// A method's receiver names its type without using it.
		walk(fn.Type, nil)
		if fn.Body != nil {
			walk(fn.Body, info.Defs[fn.Name].Type().(*types.Signature).Results())
		}
	} else {
		walk(node, nil)
	}
}

// params lists the types the n arguments of a call of sig are assigned to;
// spread is a call f(xs...).
func params(sig *types.Signature, n int, spread bool) []types.Type {
	var out []types.Type
	for i, last := 0, sig.Params().Len()-1; i < n && last >= 0; i++ {
		p := sig.Params().At(min(i, last)).Type()
		if sig.Variadic() && i >= last && !spread {
			p = p.Underlying().(*types.Slice).Elem()
		}
		out = append(out, p)
	}
	return out
}

// tupleTypes lists the types of a tuple's elements.
func tupleTypes(tup *types.Tuple) []types.Type {
	out := make([]types.Type, tup.Len())
	for i := range out {
		out[i] = tup.At(i).Type()
	}
	return out
}

// recvType is the type name of a method's receiver, nil for anything else.
func recvType(obj types.Object) types.Object {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	return recv.(*types.Named).Obj()
}

// origin is the generic declaration an instantiated method or field comes
// from, or obj itself.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// TestEveryInternalExportIsReached: every exported top-level func, method,
// type, const or var of internal/ is used by some non-test code outside its
// own declaration — a command, the quick-start, the benchmark harness or
// another reached declaration — and every exported, untagged field of an
// internal/ struct is set by some, or it is allowlisted with a reason.
func TestEveryInternalExportIsReached(t *testing.T) {
	for _, f := range checkReach(t, ".", "readys", reachAllowed) {
		switch f.kind {
		case "unreached":
			t.Errorf("%s: %s is used by no non-test code outside its own declaration: delete it, or allowlist it with the test or interface that needs it", f.pos, f.key)
		case "unset":
			t.Errorf("%s: %s is set by no non-test code: make it a constant, or allowlist it with what needs it", f.pos, f.key)
		default:
			t.Errorf("allowlist entry %s names nothing unreached or unset, or gives no reason: drop it", f.key)
		}
	}
}

// TestReachFixture: on testdata/reach the check finds a method only a test
// calls while a same-named method elsewhere is used, a field nobody sets and
// a stale allowlist entry — and not a method only an interface calls.
func TestReachFixture(t *testing.T) {
	var got []string
	for _, f := range checkReach(t, "testdata/reach", "fixture", map[string]string{"a.Live.Len": "stale: the command uses it"}) {
		got = append(got, f.kind+" "+f.key)
	}
	want := []string{"unset a.Config.Knob", "unreached a.Dead.Len", "stale a.Live.Len"}
	if !slices.Equal(got, want) {
		t.Errorf("findings on testdata/reach:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
