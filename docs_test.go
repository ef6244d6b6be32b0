package declust_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
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
// `go run ./cmd/raidsim` or `go run ./cmd/experiments` inside them, with its
// `\` continuation lines and up to the first `&`, `|`, `;` or `#`, may pass
// only flags that command defines, and every comma-separated -run id of
// cmd/experiments must be "all" or an id its main.go selects.
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
	runRE := regexp.MustCompile("go run \\./cmd/(raidsim|experiments)([ \t][^&|;#`\n]*)?")
	flagRE := regexp.MustCompile(`(?:^|\s)--?([A-Za-z][A-Za-z0-9-]*)`)
	idsRE := regexp.MustCompile(`(?:^|\s)--?run[ \t=]+(\S+)`)
	flags, ids := map[string]map[string]bool{}, map[string]map[string]bool{}
	for _, cmd := range []string{"raidsim", "experiments"} {
		flags[cmd], ids[cmd] = commandNames(t, cmd)
	}

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
			for _, m := range runRE.FindAllStringSubmatch(joined, -1) {
				cmd, args := m[1], m[2]
				for _, f := range flagRE.FindAllStringSubmatch(args, -1) {
					if !flags[cmd][f[1]] {
						t.Errorf("%s runs %s with -%s, which cmd/%s/main.go does not define", doc, cmd, f[1], cmd)
					}
				}
				for _, r := range idsRE.FindAllStringSubmatch(args, -1) {
					for _, id := range strings.Split(r[1], ",") {
						if id != "all" && !ids[cmd][id] {
							t.Errorf("%s runs %s -run %s, which cmd/%s/main.go does not select", doc, cmd, id, cmd)
						}
					}
				}
			}
		}
	}
}

// commandNames returns what cmd/<cmd>/main.go defines: its flag names (the
// first argument of each String, Bool, Int, Int64 or Float64 call on fs or
// on package flag) and the experiment ids it selects (the comma-separated
// ids of each catalog entry).
func commandNames(t *testing.T, cmd string) (flags, ids map[string]bool) {
	path := filepath.Join("cmd", cmd, "main.go")
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	flags, ids = map[string]bool{}, map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if kv, ok := n.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "ids" {
				if lit, ok := kv.Value.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					list, _ := strconv.Unquote(lit.Value)
					for _, id := range strings.Split(list, ",") {
						ids[id] = true
					}
				}
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		if fun, ok := call.Fun.(*ast.SelectorExpr); ok {
			recv, ok := fun.X.(*ast.Ident)
			if !ok || (recv.Name != "fs" && recv.Name != "flag") {
				return true
			}
			switch fun.Sel.Name {
			case "String", "Bool", "Int", "Int64", "Float64":
				flags[name] = true
			}
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatalf("found no flag definitions in %s", path)
	}
	if cmd == "experiments" && len(ids) == 0 {
		t.Fatalf("found no experiment ids in %s", path)
	}
	return flags, ids
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

// TestMakefileRunPatternsSelectTests keeps a `go test` line of the Makefile
// from running nothing without a word after a rename: every alternative of
// every -run or -bench pattern must select something in the packages the
// line names. An alternative is what go test splits a pattern into at an
// unbracketed |, and each branch of an alternation inside it counts alone.
// Its first /-separated element must match a function the packages' test
// files declare (found with go/parser) — a Test, Fuzz or Example for -run,
// a Benchmark for -bench — and each deeper element a /-separated part of a
// string literal in those files, as a subtest's name. '^$', which selects
// nothing on purpose, is exempt.
func TestMakefileRunPatternsSelectTests(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	lineRE := regexp.MustCompile(`\$\(GO\) test\b.*`)
	patRE := regexp.MustCompile(`\s-(run|bench)[= ]('[^']*'|\S+)`)
	pkgRE := regexp.MustCompile(`\s(\.(?:/\S*)?)`)
	checked := 0
	for _, line := range lineRE.FindAllString(strings.ReplaceAll(string(makefile), "$$", "$"), -1) {
		var pkgs []string
		for _, m := range pkgRE.FindAllStringSubmatch(line, -1) {
			pkgs = append(pkgs, m[1])
		}
		for _, m := range patRE.FindAllStringSubmatch(line, -1) {
			flag, pat := m[1], strings.Trim(m[2], "'")
			if pat == "^$" {
				continue
			}
			if len(pkgs) == 0 {
				t.Errorf("Makefile: %q names no package for -%s %s", line, flag, pat)
				continue
			}
			funcs, literals := testNames(t, pkgs, flag)
			for _, alt := range goTestAlternatives(pat) {
				for level, elem := range alt {
					names := funcs
					if level > 0 {
						names = literals
					}
					for _, re := range branches(t, elem) {
						if !anyMatch(re, names) {
							t.Errorf("Makefile: -%s %s: %q (in %s) selects nothing in %v", flag, pat, re, strings.Join(alt, "/"), pkgs)
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -bench pattern in the Makefile")
	}
}

// goTestAlternatives splits pat as go test does: at each | outside brackets
// and parentheses into alternatives, and each alternative at each / there
// into one element per level of subtest.
func goTestAlternatives(pat string) [][]string {
	var alts [][]string
	var elems []string
	brackets, parens, start := 0, 0, 0
	for i := 0; i < len(pat); i++ {
		switch c := pat[i]; {
		case c == '\\':
			i++
		case c == '[':
			brackets++
		case c == ']' && brackets > 0:
			brackets--
		case brackets > 0:
		case c == '(':
			parens++
		case c == ')':
			parens--
		case parens == 0 && (c == '/' || c == '|'):
			elems = append(elems, pat[start:i])
			start = i + 1
			if c == '|' {
				alts, elems = append(alts, elems), nil
			}
		}
	}
	return append(alts, append(elems, pat[start:]))
}

// branches returns elem once for every way of taking one branch at each
// alternation in it.
func branches(t *testing.T, elem string) []*regexp.Regexp {
	re, err := syntax.Parse(elem, syntax.Perl)
	if err != nil {
		t.Fatalf("Makefile pattern %q: %v", elem, err)
	}
	var out []*regexp.Regexp
	for _, b := range expand(re) {
		out = append(out, regexp.MustCompile(b.String()))
	}
	return out
}

func expand(re *syntax.Regexp) []*syntax.Regexp {
	if re.Op == syntax.OpAlternate {
		var out []*syntax.Regexp
		for _, sub := range re.Sub {
			out = append(out, expand(sub)...)
		}
		return out
	}
	out := []*syntax.Regexp{re}
	for i, sub := range re.Sub {
		var next []*syntax.Regexp
		for _, b := range expand(sub) {
			for _, o := range out {
				c := *o
				c.Sub = append([]*syntax.Regexp(nil), o.Sub...)
				c.Sub[i] = b
				next = append(next, &c)
			}
		}
		out = next
	}
	return out
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

// testNames returns what the test files of pkgs (".", "./dir" or "./...",
// the last without nested modules) declare that flag -run or -bench selects
// at the top level, and the /-separated parts of their string literals,
// spaces turned into underscores as in a subtest's name.
func testNames(t *testing.T, pkgs []string, flag string) (funcs, literals []string) {
	prefixes := []string{"Test", "Fuzz", "Example"}
	if flag == "bench" {
		prefixes = []string{"Benchmark"}
	}
	var files []string
	for _, pkg := range pkgs {
		if dir, ok := strings.CutSuffix(pkg, "/..."); ok {
			err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() && path != dir {
					name := d.Name()
					if _, mod := os.Stat(filepath.Join(path, "go.mod")); mod == nil || name == "testdata" || strings.HasPrefix(name, ".") {
						return filepath.SkipDir
					}
				}
				if strings.HasSuffix(path, "_test.go") {
					files = append(files, path)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		hits, _ := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if len(hits) == 0 {
			t.Errorf("Makefile names package %s, which has no test files", pkg)
		}
		files = append(files, hits...)
	}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				for _, p := range prefixes {
					if strings.HasPrefix(fn.Name.Name, p) {
						funcs = append(funcs, fn.Name.Name)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					literals = append(literals, strings.Split(strings.ReplaceAll(s, " ", "_"), "/")...)
				}
			}
			return true
		})
	}
	return funcs, literals
}
