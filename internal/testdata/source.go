package testdata

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// ParseSource parses the source of the package in the working directory —
// a test's own package — skipping its test files unless tests is set.
func ParseSource(t testing.TB, fset *token.FileSet, tests bool) []*ast.File {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// InspectFuncs walks the body of every non-test function of the package in
// the working directory, calling visit on each node with the name of the
// function that encloses it. It is the one walker of the structure tests
// that pin, with go/parser, where a package does a thing.
func InspectFuncs(t testing.TB, visit func(fn string, n ast.Node)) {
	t.Helper()
	for _, f := range ParseSource(t, token.NewFileSet(), false) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					visit(fn.Name.Name, n)
					return true
				})
			}
		}
	}
}
