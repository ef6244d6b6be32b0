package declust_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameThingsThatExist keeps the documents that describe the tree
// as it is from naming what is not in it: every internal/, cmd/, examples/,
// bench/ or results/ path they mention must resolve to a file or directory
// (a pattern, to at least one), and every `make <target>` inside backticks
// or a code fence to a target of the Makefile. CHANGES.md, ROADMAP.md and
// results/ are history and say what was true when written; benchmark/ is
// outside this module's gate.
func TestDocsNameThingsThatExist(t *testing.T) {
	docs := []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md",
		"internal/store/doc.go", ".claude/skills/verify/SKILL.md",
	}
	// A path starts where no longer path could be running: not after a
	// name character or a slash, except the "./" of a go run argument.
	pathRE := regexp.MustCompile(`(?:^|[^A-Za-z0-9_/.-])(?:\./)?((?:internal|cmd|examples|bench|results)/[A-Za-z0-9_./*-]*)`)
	codeRE := regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	makeRE := regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}

	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pathRE.FindAllSubmatch(text, -1) {
			path := strings.TrimRight(string(m[1]), "./")
			if hits, _ := filepath.Glob(path); len(hits) == 0 {
				t.Errorf("%s names %s, which does not exist", doc, path)
			}
		}
		for _, code := range codeRE.FindAll(text, -1) {
			for _, m := range makeRE.FindAllSubmatch(code, -1) {
				if !targets[string(m[1])] {
					t.Errorf("%s names `make %s`, which the Makefile does not have", doc, m[1])
				}
			}
		}
	}
}
