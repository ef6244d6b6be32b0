package store

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"reflect"
	"slices"
	"strings"
	"testing"

	"declust/internal/testdata"
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
	refs := map[string]map[string]int{"overlap": {}, "pays": {}} // name → enclosing function → count
	gos := map[string]int{}                                      // enclosing function → go statements
	testdata.InspectFuncs(t, func(fn string, n ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			gos[fn]++
		case *ast.SelectorExpr:
			if by, ok := refs[n.Sel.Name]; ok {
				by[fn]++
			}
		}
	})
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

// TestOneReadDoorway pins where the engine reads a unit: readPhys, the
// one call of a backend's ReadUnit, is called only by gather, which reads
// the units a stripe's lock hold does not hold yet and records them in the
// hold's record (stripeScratch) — a span read's plan, a parity update's
// first round, a repair's sources. A read beside it — one that read around
// the record, and so read again what its operation read clean under the
// same hold — fails it.
func TestOneReadDoorway(t *testing.T) {
	calls := map[string]int{} // enclosing function → calls of readPhys
	testdata.InspectFuncs(t, func(fn string, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "readPhys" {
				calls[fn]++
			}
		}
	})
	if want := (map[string]int{"gather": 1}); !reflect.DeepEqual(calls, want) {
		t.Errorf("readPhys called from %v, want %v", calls, want)
	}
}

// TestOneSolve pins the store's one solve: solve and erasures, which list
// and compute a stripe's erasure set, are called only by recoverInto, which
// checks the erasure budget and heals what it solves. A span read reaches
// them through recoverInto under either lock, so a decode written beside
// it, one that could solve past the budget or skip a heal, fails it.
func TestOneSolve(t *testing.T) {
	calls := map[string]map[string]int{"solve": {}, "erasures": {}} // callee → enclosing function → calls
	testdata.InspectFuncs(t, func(fn string, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if by, ok := calls[sel.Sel.Name]; ok {
					by[fn]++
				}
			}
		}
	})
	if want := (map[string]map[string]int{"solve": {"recoverInto": 1}, "erasures": {"recoverInto": 1}}); !reflect.DeepEqual(calls, want) {
		t.Errorf("solve and erasures called from %v, want %v", calls, want)
	}
}

// TestOnePlanner keeps the write rule in the layout: no function of the
// package calls layout.FromScratch. A stripe's accesses are the plan
// layout.PlanStripe makes, which the simulator runs too; a second choice
// of plan here, beside it, fails this.
func TestOnePlanner(t *testing.T) {
	testdata.InspectFuncs(t, func(fn string, n ast.Node) {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "FromScratch" {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "layout" {
				t.Errorf("%s calls layout.FromScratch", fn)
			}
		}
	})
}

// TestNoInterfaceAssertions keeps the Disk contract closed: no non-test
// file type-asserts to an interface type, so no method of a backend is
// found by discovery, where a wrapper that embeds a Disk would silently
// drop it. Assertions to a concrete type (the pools' *[]byte and
// *stripeScratch) are allowed.
func TestNoInterfaceAssertions(t *testing.T) {
	fset := token.NewFileSet()
	files := testdata.ParseSource(t, fset, false)
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("declust/internal/store", fset, files, info); err != nil {
		t.Fatal(err)
	}
	assertsInterface := func(e ast.Expr) {
		if types.IsInterface(info.Types[e].Type) {
			t.Errorf("%s: type assertion to interface %s", fset.Position(e.Pos()), types.ExprString(e))
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type != nil { // nil in a type switch, whose cases follow
					assertsInterface(n.Type)
				}
			case *ast.TypeSwitchStmt:
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						assertsInterface(e)
					}
				}
			}
			return true
		})
	}
}

// TestOneTestDevice keeps the suite's scripted device the only one: of the
// types the package's tests declare, scriptedDisk and scriptedIntent alone
// declare a method of the Disk or the IntentLog contract, and the only
// ones that embed a field are embedded, a Disk wrapper that declares
// nothing of its own, and flatStore, whose *Store is no device. A proof
// that needs a backend or a log to misbehave writes a hook, not a type.
func TestOneTestDevice(t *testing.T) {
	contract := map[string]bool{}
	for _, iface := range []reflect.Type{reflect.TypeFor[Disk](), reflect.TypeFor[IntentLog]()} {
		for i := range iface.NumMethod() {
			contract[iface.Method(i).Name] = true
		}
	}
	fset := token.NewFileSet()
	got := map[string][]string{} // test type → contract methods it declares and fields it embeds
	for _, f := range testdata.ParseSource(t, fset, true) {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && contract[n.Name.Name] {
					recv := strings.TrimPrefix(types.ExprString(n.Recv.List[0].Type), "*")
					got[recv] = append(got[recv], n.Name.Name)
				}
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						if field.Names == nil {
							got[n.Name.Name] = append(got[n.Name.Name], "embeds "+types.ExprString(field.Type))
						}
					}
				}
			}
			return true
		})
	}
	for _, list := range got {
		slices.Sort(list)
	}
	want := map[string][]string{
		"scriptedDisk":   {"Close", "Geometry", "ReadUnit", "Sync", "WriteUnit"},
		"scriptedIntent": {"Clear", "ClearBatch", "Close", "Init", "Mark", "MarkBatch"},
		"embedded":       {"embeds Disk"},
		"flatStore":      {"embeds *Store"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("test types that declare a Disk or IntentLog method or embed a field: %v, want %v", got, want)
	}
}

// TestOneFailureTransition keeps the failure state's changes in one place:
// no non-test function but New, which publishes the first snapshot, and
// transition stores the snapshot pointer. Fail, Rebuild's install and heal,
// and a failed rebuild's undo are edits passed to transition, so a
// hand-written publish beside it — with its own copy and its own progress
// reset — fails it.
func TestOneFailureTransition(t *testing.T) {
	stores := map[string]int{} // enclosing function → stores to .st
	testdata.InspectFuncs(t, func(fn string, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Store" {
				if x, ok := sel.X.(*ast.SelectorExpr); ok && x.Sel.Name == "st" {
					stores[fn]++
				}
			}
		}
	})
	if want := (map[string]int{"New": 1, "transition": 1}); !reflect.DeepEqual(stores, want) {
		t.Errorf("failure snapshot stored from %v, want %v", stores, want)
	}
}
