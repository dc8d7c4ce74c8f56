package viyojit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDesignModuleTable holds DESIGN.md §3's module table to the tree:
// exactly one row per directory of the module that holds Go files, and no
// row for a directory that holds none. The repo root's row is
// "`viyojit` (repo root)".
func TestDesignModuleTable(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no §3")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	rows := map[string]int{}
	for _, line := range strings.Split(sec, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ = strings.Cut(name, "`")
			if name == "viyojit" {
				name = "."
			}
			rows[name]++
		}
	}

	pkgs := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			pkgs[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var missing, extra []string
	for p := range pkgs {
		if rows[p] != 1 {
			missing = append(missing, p)
		}
	}
	for r := range rows {
		if !pkgs[r] {
			extra = append(extra, r)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("DESIGN.md §3 needs exactly one row for each of %v", missing)
	}
	if len(extra) > 0 {
		t.Errorf("DESIGN.md §3 has rows for %v, which hold no Go package", extra)
	}
}

// TestSystemMethodsHaveCallers holds the facade to DESIGN §10's rule that
// nothing only tests reach stays in the product: every exported method of
// System must be selected by name (x.Method) in some non-test Go file
// outside viyojit.go — a command, an example, the benchmark or an
// internal package. It parses without type-checking, so a same-named
// method of another type counts as a caller too.
func TestSystemMethodsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "viyojit.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string]bool{}
	for _, d := range facade.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || !fn.Name.IsExported() {
			continue
		}
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok && id.Name == "System" {
			methods[fn.Name.Name] = false
		}
	}
	if len(methods) == 0 {
		t.Fatal("viyojit.go declares no System methods")
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == "viyojit.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if _, declared := methods[sel.Sel.Name]; declared {
					methods[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for name, called := range methods {
		if !called {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("System methods no non-test file outside viyojit.go calls: %v; give each a caller or delete it", uncalled)
	}
}
