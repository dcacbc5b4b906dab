package readys_test

import (
	"os"
	"regexp"
	"testing"
)

// docsNamingCommands are the documents that tell a reader what to run. The
// dated diaries of EXPERIMENTS.md describe past trees and are not checked.
var docsNamingCommands = []string{
	"README.md",
	"DESIGN.md",
	"Makefile",
	".claude/skills/verify/SKILL.md",
}

var (
	// cmdOrExample matches cmd/<name> and examples/<name>, with or without a
	// leading ./, where it is not the tail of a longer path.
	cmdOrExample = regexp.MustCompile(`(?:^|[^\w./-])((?:\./)?(?:cmd|examples)/[\w-]+)`)
	// goRunTarget matches the package a go run (or $(GO) run) line names,
	// past any flags.
	goRunTarget = regexp.MustCompile(`(?:\bgo|\$\(GO\)) run (?:-\S+ +)*(\./[\w./-]*[\w-])`)
)

// TestDocsNameOnlyExistingCommands: every command, example and go run target
// the documents name is a directory of this tree, so a deleted command cannot
// stay documented.
func TestDocsNameOnlyExistingCommands(t *testing.T) {
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
	}
}
