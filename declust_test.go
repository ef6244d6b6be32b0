package declust_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"declust"
)

// TestFacadeExportsHaveCallers keeps declust.go to the names something
// uses: an exported function, constant or variable must be referenced as
// declust.X by a file under cmd/ or examples/ or by a root test; an
// exported type must be referenced so, or appear in declust.go outside its
// own declaration (in the signature of a function that stays). A name
// nothing calls goes, and comes back with its first caller.
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	callers, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				callers = append(callers, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	called := map[string]bool{} // X of every declust.X selector
	for _, path := range callers {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"declust"` {
				pkg = "declust"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	facade, err := parser.ParseFile(fset, "declust.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The identifiers declust.go itself uses: not the name a type
	// declaration introduces, and not the Name of an imported pkg.Name
	// (type Loc = layout.Loc does not use Loc).
	notAUse := map[*ast.Ident]bool{}
	ast.Inspect(facade, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			notAUse[n.Sel] = true
		case *ast.TypeSpec:
			notAUse[n.Name] = true
		}
		return true
	})
	used := map[string]bool{}
	ast.Inspect(facade, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !notAUse[id] {
			used[id.Name] = true
		}
		return true
	})

	exported := 0
	check := func(kind string, name *ast.Ident, live bool) {
		if !name.IsExported() {
			return
		}
		exported++
		if !live {
			t.Errorf("declust.%s: exported %s with no caller under cmd/, examples/ or the root tests; delete it, or add it with its first caller", name.Name, kind)
		}
	}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				check("func", d.Name, called[d.Name.Name])
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, name := range s.Names {
						check(d.Tok.String(), name, called[name.Name])
					}
				case *ast.TypeSpec:
					check("type", s.Name, called[s.Name.Name] || used[s.Name.Name])
				}
			}
		}
	}
	t.Logf("declust.go exports %d names", exported)
}

func TestFacadeMapping(t *testing.T) {
	m, err := declust.NewMapping(21, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha() != 0.2 {
		t.Fatalf("α = %v, want 0.2", m.Alpha())
	}
	if !strings.Contains(m.Describe(), "declustered") {
		t.Fatalf("describe: %s", m.Describe())
	}
	crit, err := m.Criteria()
	if err != nil {
		t.Fatal(err)
	}
	if !crit.SingleFailureCorrecting {
		t.Fatal("criteria not evaluated")
	}
}

func TestFacadePaperDesign(t *testing.T) {
	d, err := declust.PaperDesign(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.B != 21 || p.Lambda != 1 {
		t.Fatalf("params %+v", p)
	}
}

func TestFacadeSelectDesign(t *testing.T) {
	d, exact, err := declust.SelectDesign(21, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !exact || d.K != 6 {
		t.Fatalf("exact=%v k=%d", exact, d.K)
	}
}

func TestFacadeSimulation(t *testing.T) {
	res, err := declust.RunReconstruction(declust.SimConfig{
		C: 21, G: 5,
		Scale:      50,
		RatePerSec: 105, ReadFraction: 0.5,
		ReconProcs: 8,
		Algorithm:  declust.Redirect,
		WarmupMS:   2000, MeasureMS: 10000,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReconTimeMS <= 0 {
		t.Fatal("no reconstruction time")
	}
}

func TestFacadeGeometry(t *testing.T) {
	g := declust.IBM0661()
	if g.Cylinders != 949 {
		t.Fatalf("cylinders = %d", g.Cylinders)
	}
}

func TestFacadeAnalytic(t *testing.T) {
	m := declust.AnalyticModel{
		C: 21, G: 5, UserRate: 105, ReadFraction: 0.5,
		DiskRate: 46, UnitsPerDisk: 79710,
	}
	if _, err := m.ReconstructionTime(); err != nil {
		t.Fatal(err)
	}
	r := declust.Reliability{C: 21, MTTFHours: 150000, MTTRHours: 1}
	if _, err := r.MTTDLHours(); err != nil {
		t.Fatal(err)
	}
}
