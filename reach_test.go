package readys_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed names the exported internal/ declarations that no non-test
// file names but that stay: a test compares the library against them, or an
// interface calls them without naming them. Each reason names that user.
var reachAllowed = map[string]string{
	// References the equivalence tests hold the fused, segment and sparse
	// paths to.
	"ReLU":               "autograd TestLinearReLUSegMatchesThreeOps: the three-op reference of LinearReLUSeg",
	"Var":                "autograd TestLinearReLUSegMatchesThreeOps and the gradient checks: a differentiable leaf",
	"Pick":               "rl accumulatePerDecision (TestBatchedUpdateBitIdentical): the per-decision tape reference",
	"AddConst":           "rl accumulatePerDecision (TestBatchedUpdateBitIdentical): the per-decision tape reference",
	"RequiresGrad":       "nn TestInferenceBindingMatchesFreshTapes: a pass on an inference binding requires no gradient",
	"NewReferencePolicy": "core TestServingPolicyResultIdentical, TestIncrementalResultIdentical and stream TestStreamIncrementalIdentical: the full-rebuild oracle",
	"MatMulTransA":       "tensor TestMatMulTransA and TestSpMMTransAMatchesDense: the dense reference of the fused ∂W products",
	"Dense":              "autograd TestSpMMMatchesDenseOnTape and nn TestGCNForwardMatchesDenseComposition: the dense reference of a sparse product",
	"SparseFromDense":    "tensor TestSpMMMatchesDenseProperty and autograd TestGradSpMM: a sparse operand from a dense fixture",
	// Fixtures the tests of several packages share.
	"NewLayeredRandom":    "root TestChaosAllPoliciesSurviveRandomFaults, sched TestHEFTValidOnRandomDAGsProperty, sim TestSimulateRandomDAGs: random layered DAGs",
	"DefaultRandomConfig": "root TestChaosFaultFreePlansAreInert, sched and sim random-DAG tests: the shape of NewLayeredRandom's DAGs",
	"FromSlice":           "tensor, autograd and nn tests: a matrix from literal values",
	"AllClose":            "tensor TestMatMulMatchesNaiveProperty and nn TestLinearMatchesManualCompute: comparison within a tolerance",
	"Equal":               "tensor, autograd, nn and core tests: bitwise comparison of matrices and sparse operators",
	// Interface methods the standard library calls by interface.
	"MarshalJSON":   "encoding/json.Marshaler",
	"UnmarshalJSON": "encoding/json.Unmarshaler",
}

// goFile is a parsed Go file of this tree and its package's directory.
type goFile struct {
	dir string
	ast *ast.File
}

// parseTree parses every Go file of this tree, the benchmark module's too,
// whose name has the _test.go suffix exactly when tests is set.
func parseTree(t *testing.T, fset *token.FileSet, tests bool) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		files = append(files, goFile{filepath.ToSlash(filepath.Dir(path)), f})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// reachDecl is one top-level declaration of an internal package.
type reachDecl struct {
	name, pos, dir string
	recv           string    // a method's receiver type, "" for anything else
	from, to       token.Pos // the declaration's extent, its body included
}

// key is the key of uses under which a use reaches d: dir.Name for a
// package-level name, .Name for a method.
func (d reachDecl) key() string {
	if d.recv != "" {
		return "." + d.name
	}
	return d.dir + "." + d.name
}

// TestEveryInternalExportIsReached: every exported top-level func, method,
// type, const or var of internal/ is named by some non-test file outside its
// own declaration — a command, an example, the benchmark harness or another
// live declaration — or is allowlisted with a reason. A package-level name is
// reached by a use inside its package or by pkg.Name through an import of
// it; a method, whose receiver's type only a type checker knows, by any
// selector x.Name. A declaration named only from inside unreached ones is
// itself unreached: the scan repeats until nothing more drops out, so a chain
// of exports only each other call is found whole.
func TestEveryInternalExportIsReached(t *testing.T) {
	fset := token.NewFileSet()
	var decls []reachDecl
	uses := map[string][]token.Pos{}
	for _, f := range parseTree(t, fset, false) {
		if strings.HasPrefix(f.dir, "internal/") {
			decls = append(decls, topLevelDecls(fset, f)...)
		}
		imports := map[string]string{}
		for _, imp := range f.ast.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			name := filepath.Base(path)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(path, "readys/")
		}
		// A method's receiver names its type without reaching it.
		skip := map[token.Pos]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if id := receiverType(n); id != nil {
					skip[id.Pos()] = true
				}
			case *ast.SelectorExpr:
				skip[n.Sel.Pos()] = true
				key := "." + n.Sel.Name
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					skip[x.Pos()] = true
					key = imports[x.Name] + key
				}
				uses[key] = append(uses[key], n.Sel.Pos())
			case *ast.Ident:
				if !skip[n.Pos()] {
					uses[f.dir+"."+n.Name] = append(uses[f.dir+"."+n.Name], n.Pos())
				}
			}
			return true
		})
	}
	types := map[string]int{}
	for i, d := range decls {
		if d.recv == "" {
			types[d.dir+"."+d.name] = i
		}
	}

	// reached reports whether a use of decls[i] lies outside it and outside
	// every unreached declaration.
	dead := map[int]bool{}
	reached := func(i int) bool {
		for _, p := range uses[decls[i].key()] {
			inside := false
			for j, d := range decls {
				inside = inside || ((j == i || dead[j]) && d.from <= p && p < d.to)
			}
			if !inside {
				return true
			}
		}
		return false
	}
	// Allowlisted declarations stay reached, and so does what they name; so
	// do init functions and blank names. A method of an unreached type is
	// unreached whatever names it. Unexported declarations take part, so an
	// export reached only through an unreached helper is found too, but only
	// exported ones are reported.
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if _, ok := reachAllowed[d.name]; ok || dead[i] || d.name == "init" || d.name == "_" {
				continue
			}
			if typ, isMethod := types[d.dir+"."+d.recv]; (isMethod && dead[typ]) || !reached(i) {
				dead[i], changed = true, true
			}
		}
	}

	for i, d := range decls {
		if dead[i] && token.IsExported(d.name) {
			t.Errorf("%s: %s is named by no non-test file outside its own declaration: delete it, or allowlist it with the test or interface that needs it", d.pos, strings.TrimPrefix(d.recv+"."+d.name, "."))
		}
	}
	for name, reason := range reachAllowed {
		needed := false
		for i, d := range decls {
			needed = needed || (d.name == name && !reached(i))
		}
		if !needed || strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s names no unreached exported internal/ declaration, or gives no reason: drop it", name)
		}
	}
}

// topLevelDecls lists the top-level funcs, methods, types, consts and vars
// of one file.
func topLevelDecls(fset *token.FileSet, f goFile) []reachDecl {
	var out []reachDecl
	add := func(id *ast.Ident, recv string, node ast.Node) {
		p := fset.Position(id.Pos())
		out = append(out, reachDecl{id.Name, filepath.ToSlash(p.Filename) + ":" + strconv.Itoa(p.Line), f.dir, recv, node.Pos(), node.End()})
	}
	for _, decl := range f.ast.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			recv := ""
			if id := receiverType(decl); id != nil {
				recv = id.Name
			}
			add(decl.Name, recv, decl)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "", spec)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, "", spec)
					}
				}
			}
		}
	}
	return out
}

// receiverType is the type name of a method's receiver, nil for a function.
func receiverType(fn *ast.FuncDecl) *ast.Ident {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if generic, ok := typ.(*ast.IndexExpr); ok {
		typ = generic.X // a receiver T[E]
	}
	id, _ := typ.(*ast.Ident)
	return id
}
