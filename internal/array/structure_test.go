package array

import (
	"go/ast"
	"reflect"
	"testing"

	"declust/internal/testdata"
)

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
	testdata.InspectFuncs(t, func(fn string, n ast.Node) {
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

// TestOneSolve pins the simulator's decode of a lost unit outside a user
// plan: decodeLost is called only by reconStep, the rebuild sweep. A user
// read decodes through its plan under the stripe lock (userOp.locked), a
// read that met damage too, so a read path that decodes on its own fails
// it.
func TestOneSolve(t *testing.T) {
	calls := map[string]int{} // enclosing function → calls of decodeLost
	testdata.InspectFuncs(t, func(fn string, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "decodeLost" {
				calls[fn]++
			}
		}
	})
	if want := (map[string]int{"reconStep": 1}); !reflect.DeepEqual(calls, want) {
		t.Errorf("decodeLost called from %v, want %v", calls, want)
	}
}

// TestOnePlanner keeps the write rule in the layout: no function of the
// package calls layout.FromScratch. A stripe's accesses are the plan
// layout.PlanStripe makes, which the store runs too, priced here with one
// override, §6's small write; a second choice of plan beside it fails this.
func TestOnePlanner(t *testing.T) {
	testdata.InspectFuncs(t, func(fn string, n ast.Node) {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "FromScratch" {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "layout" {
				t.Errorf("%s calls layout.FromScratch", fn)
			}
		}
	})
}
