package declust_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameThingsThatExist keeps the documents that describe the tree
// as it is from naming what is not in it: every internal/, cmd/, examples/,
// bench/ or results/ path they mention must resolve to a file or directory
// (a pattern, to at least one), every `make <target>` inside backticks
// or a code fence to a target of the Makefile, and every `pkg.Name` inside
// them whose pkg is a directory under internal/ to an exported name that
// package declares (a function, type, constant, variable or method).
// CHANGES.md, ROADMAP.md and results/ are history and say what was true when
// written; benchmark/ is outside this module's gate.
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
	nameRE := regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}

	declared := map[string]map[string]bool{} // by package; nil: no such package
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
			for _, m := range nameRE.FindAllSubmatch(code, -1) {
				pkg, name := string(m[1]), string(m[2])
				names, seen := declared[pkg]
				if !seen {
					names = exportedNames(t, pkg)
					declared[pkg] = names
				}
				if names != nil && !names[name] {
					t.Errorf("%s names `%s.%s`, which internal/%s does not declare", doc, pkg, name, pkg)
				}
			}
		}
	}
}

// exportedNames returns the exported names internal/<pkg> declares outside
// its tests — top-level declarations and methods — or nil when there is no
// such package.
func exportedNames(t *testing.T, pkg string) map[string]bool {
	var names map[string]bool
	files, _ := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if names == nil {
			names = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}
