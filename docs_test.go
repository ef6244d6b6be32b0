package declust_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameThingsThatExist keeps the documents that describe the tree
// as it is from naming what is not in it: every internal/, cmd/, examples/,
// bench/ or results/ path they mention must resolve to a file or directory
// (a pattern, to at least one), every `make <target>` inside backticks
// or a code fence to a target of the Makefile, and every `pkg.Name` inside
// them whose pkg is a directory under internal/ to an exported name that
// package declares (a function, type, constant, variable or method). Every
// `go run ./cmd/raidsim` inside them, with its `\` continuation lines and up
// to the first `&`, `|`, `;` or `#`, may pass only flags cmd/raidsim defines.
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
	raidsimRE := regexp.MustCompile("go run \\./cmd/raidsim([ \t][^&|;#`\n]*)?")
	flagRE := regexp.MustCompile(`(?:^|\s)--?([A-Za-z][A-Za-z0-9-]*)`)
	flags := raidsimFlags(t)

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
			joined := strings.ReplaceAll(string(code), "\\\n", " ")
			for _, m := range raidsimRE.FindAllStringSubmatch(joined, -1) {
				for _, f := range flagRE.FindAllStringSubmatch(m[1], -1) {
					if !flags[f[1]] {
						t.Errorf("%s runs raidsim with -%s, which cmd/raidsim/main.go does not define", doc, f[1])
					}
				}
			}
		}
	}
}

// raidsimFlags returns the flag names cmd/raidsim/main.go defines: the first
// argument of each fs.String, fs.Bool, fs.Int, fs.Int64 or fs.Float64 call.
func raidsimFlags(t *testing.T) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "raidsim", "main.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" {
			return true
		}
		switch sel.Sel.Name {
		case "String", "Bool", "Int", "Int64", "Float64":
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
			}
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatal("found no flag definitions in cmd/raidsim/main.go")
	}
	return flags
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
