package readys_test

import (
	"go/ast"
	"go/token"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// docsNamingCommands are the documents that tell a reader what to run, and
// name the tests, benchmarks and fuzz targets a reader may run or trust;
// reach_test.go's allowlist names the tests that keep an export.
var docsNamingCommands = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"Makefile",
	".claude/skills/verify/SKILL.md",
	"reach_test.go",
}

var (
	// cmdOrExample matches cmd/<name> and examples/<name>, with or without a
	// leading ./, where it is not the tail of a longer path.
	cmdOrExample = regexp.MustCompile(`(?:^|[^\w./-])((?:\./)?(?:cmd|examples)/[\w-]+)`)
	// goRunTarget matches the package a go run (or $(GO) run) line names,
	// past any flags.
	goRunTarget = regexp.MustCompile(`(?:\bgo|\$\(GO\)) run (?:-\S+ +)*(\./[\w./-]*[\w-])`)
	// makeCitation matches a backticked make command and captures its target.
	makeCitation = regexp.MustCompile("`make ([\\w-]+)")
	// makeRule matches a rule's target at the start of a Makefile line; a
	// variable assignment (:=, ?=) is no rule.
	makeRule = regexp.MustCompile(`(?m)^([\w-]+)[ \t]*:(?:[^=]|$)`)
)

// TestDocsNameOnlyExistingCommands: every command, example and go run target
// the documents name is a directory of this tree, and every `make <target>`
// they cite is a rule of the Makefile, so a deleted command or target cannot
// stay documented.
func TestDocsNameOnlyExistingCommands(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	cited := 0
	for _, doc := range docsNamingCommands {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, m := range cmdOrExample.FindAllSubmatch(data, -1) {
			paths = append(paths, string(m[1]))
		}
		for _, m := range goRunTarget.FindAllSubmatch(data, -1) {
			paths = append(paths, string(m[1]))
		}
		if len(paths) == 0 {
			t.Errorf("%s names no command: the patterns no longer match its command lines", doc)
		}
		for _, p := range paths {
			if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory of this tree", doc, p)
			}
		}
		for _, m := range makeCitation.FindAllSubmatch(data, -1) {
			cited++
			if !targets[string(m[1])] {
				t.Errorf("%s cites `make %s`, which is no target of the Makefile", doc, m[1])
			}
		}
	}
	if cited == 0 {
		t.Error("the documents cite no make target: the pattern no longer matches their citations")
	}
}

var (
	// testIdent matches a Test…, Benchmark… or Fuzz… identifier.
	testIdent = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// runFlag matches a go test -run, -bench or -fuzz pattern, quoted or not.
	runFlag = regexp.MustCompile(`(?:^|\s)-(run|bench|fuzz) +('[^']*'|[^\s'` + "`" + `]+)`)
	// pkgArg matches a word of a go test line that names a package.
	pkgArg = regexp.MustCompile(`^\.(?:/[\w.-]+)*/?$`)
)

// TestDocsNameOnlyExistingTests: every Test…, Benchmark… or Fuzz… name the
// documents give is a test of this tree or the prefix of one, and every
// alternative of a -run, -bench or -fuzz pattern matches a test of a package
// its line names — so a deleted or renamed test cannot stay documented, and
// a make target cannot keep running a pattern that matches nothing.
func TestDocsNameOnlyExistingTests(t *testing.T) {
	funcs := map[string][]string{} // the Test, Benchmark and Fuzz functions by directory
	var all []string
	for _, f := range parseTree(t, token.NewFileSet(), ".", true) {
		for _, decl := range f.ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testIdent.MatchString(fn.Name.Name) {
				funcs[f.dir] = append(funcs[f.dir], fn.Name.Name)
				all = append(all, fn.Name.Name)
			}
		}
	}
	allLines := "\n" + strings.Join(all, "\n")
	for _, doc := range docsNamingCommands {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range testIdent.FindAllString(string(data), -1) {
			if !strings.Contains(allLines, "\n"+name) {
				t.Errorf("%s names %s, which is no test of this tree nor the prefix of one", doc, name)
			}
		}
		for i, line := range strings.Split(string(data), "\n") {
			var names []string
			named := false
			for _, word := range strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' || r == '`' }) {
				if pkgArg.MatchString(word) {
					named = true
					if dir := path.Clean(word); dir == "..." {
						names = all
					} else {
						names = append(names, funcs[dir]...)
					}
				}
			}
			for _, r := range runFlag.FindAllStringSubmatch(line, -1) {
				top, _, _ := strings.Cut(strings.ReplaceAll(strings.Trim(r[2], "'"), "$$", "$"), "/")
				for _, alt := range strings.Split(top, "|") {
					re, err := regexp.Compile(alt)
					matched := !named || alt == "^$"
					for _, n := range names {
						matched = matched || (err == nil && re.MatchString(n) && (r[1] != "bench" || strings.HasPrefix(n, "Benchmark")))
					}
					if !matched {
						t.Errorf("%s:%d: -%s alternative %q matches no test of the packages the line names", doc, i+1, r[1], alt)
					}
				}
			}
		}
	}
}
