package store

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOneBatchDecisionPoint reads the package's non-test source and pins
// where a batch's inline-or-overlapped choice can be made: overlap is
// referenced only by fanOut, the one place a batch is issued; the gate's
// pays only by overlap and by Rebuild's write-behind, an asynchronous
// write rather than a batch; and goroutines start only in fanOut (its
// helpers), sweep (its shards) and Rebuild (the write-behind), one go
// statement each. A call site that asks the gate itself, to keep a serial
// twin of its batch beside fanOut, fails it.
func TestOneBatchDecisionPoint(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]map[string]int{"overlap": {}, "pays": {}} // name → enclosing function → count
	gos := map[string]int{}                                      // enclosing function → go statements
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					gos[fn.Name.Name]++
				case *ast.SelectorExpr:
					if by, ok := refs[n.Sel.Name]; ok {
						by[fn.Name.Name]++
					}
				}
				return true
			})
		}
	}
	if want := (map[string]map[string]int{
		"overlap": {"fanOut": 1},
		"pays":    {"overlap": 1, "Rebuild": 1},
	}); !reflect.DeepEqual(refs, want) {
		t.Errorf("gate referenced from %v, want %v", refs, want)
	}
	if want := (map[string]int{"fanOut": 1, "sweep": 1, "Rebuild": 1}); !reflect.DeepEqual(gos, want) {
		t.Errorf("go statements in %v, want %v", gos, want)
	}
}
