package viyojit

import (
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
