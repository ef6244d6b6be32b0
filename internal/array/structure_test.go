package array

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// inspectFuncs walks the body of every non-test function of the package,
// calling visit on each node with the name of the function that encloses it.
func inspectFuncs(t *testing.T, visit func(fn string, n ast.Node)) {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
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

// TestOneErasurePath reads the package's non-test source and pins the one
// path of an unreadable unit: a loss is booked (recordLoss) only by
// repairLocked, which classifies a stripe's erasures against the code's
// budget, and by SecondFail, the whole-disk double failure; a loss event is
// made only in repairLocked. The rebuild sweep, reconStep, holds no loss or
// rewrite code of its own: it names none of the fault bookkeeping, and its
// one write transfer is the rebuilt unit's.
func TestOneErasurePath(t *testing.T) {
	refs := map[string]map[string]int{"recordLoss": {}, "lossEvents": {}} // name → enclosing function → count
	var inRecon []string
	writes := 0
	inspectFuncs(t, func(fn string, n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if by, ok := refs[n.Sel.Name]; ok {
				by[fn]++
			}
			if fn == "reconStep" {
				switch n.Sel.Name {
				case "recordLoss", "lossEvents", "fstats", "mLostUnits", "mRepairs", "repairLocked", "repairThen":
					inRecon = append(inRecon, n.Sel.Name)
				}
			}
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok && k.Name == "write" && fn == "reconStep" {
				writes++
			}
		}
	})
	if want := (map[string]map[string]int{
		"recordLoss": {"repairLocked": 1, "SecondFail": 1},
		"lossEvents": {"repairLocked": 2, "DataLosses": 2},
	}); !reflect.DeepEqual(refs, want) {
		t.Errorf("loss bookkeeping referenced from %v, want %v", refs, want)
	}
	if len(inRecon) != 0 || writes != 1 {
		t.Errorf("reconStep references %v and builds %d write transfers; want none, and its own one write", inRecon, writes)
	}
}

// TestOnePlanner keeps the write rule in the layout: no function of the
// package calls layout.FromScratch. A stripe's accesses are the plan
// layout.PlanStripe makes, which the store runs too, priced here with one
// override, §6's small write; a second choice of plan beside it fails this.
func TestOnePlanner(t *testing.T) {
	inspectFuncs(t, func(fn string, n ast.Node) {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "FromScratch" {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "layout" {
				t.Errorf("%s calls layout.FromScratch", fn)
			}
		}
	})
}
