package greta_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mapRangeAllowlist is the committed list of the map ranges that
// TestMapRangeAllowlist admits: one line each, "file func expr reason:
// why", where reason says why Go's randomized map order cannot escape
// the loop — sorted (what the loop collects is sorted before it is
// used), commutative (the loop folds with an operation whose result
// does not depend on order: a sum, a min, a set insertion, a count) or
// lookup (each iteration touches its own key only: a copy, a delete, a
// per-key update).
const mapRangeAllowlist = "testdata/maprange_allowlist.txt"

// mapRangeDirs are the packages whose non-test code the guard reads.
func mapRangeDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if strings.HasPrefix(p, "internal"+string(filepath.Separator)) || p == "cluster" || p == "netstream" {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// mapRanges lists every range over a map in the non-test code of dirs,
// one "file func expr" site each, type-checked from source.
func mapRanges(t *testing.T, dirs []string) []string {
	t.Helper()
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	var sites []string
	for _, dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := conf.Check(bp.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					name = "(" + exprText(fset, fn.Recv.List[0].Type) + ")." + name
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					r, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if tv, ok := info.Types[r.X]; ok {
						if _, ok := tv.Type.Underlying().(*types.Map); ok {
							file := filepath.ToSlash(fset.Position(r.Pos()).Filename)
							sites = append(sites, file+" "+name+" "+exprText(fset, r.X))
						}
					}
					return true
				})
			}
		}
	}
	slices.Sort(sites)
	return sites
}

func exprText(fset *token.FileSet, x ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, fset, x); err != nil {
		panic(err)
	}
	return strings.Join(strings.Fields(b.String()), "")
}

// TestMapRangeAllowlist finds map-order leaks mechanically: every range
// over a map in the non-test code of internal/..., cluster and
// netstream must be on the allowlist with the reason its iteration order
// cannot reach an output — results, wire bytes, checkpoint bytes, Stats
// — and every allowlist line must still name a site. A new map range
// fails until it is shown order-free and listed.
func TestMapRangeAllowlist(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	f, err := os.Open(mapRangeAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 || !slices.Contains([]string{"sorted:", "commutative:", "lookup:"}, fields[3]) {
			t.Fatalf("%s:%d: want \"file func expr sorted|commutative|lookup: why\", got %q", mapRangeAllowlist, n, line)
		}
		allowed[strings.Join(fields[:3], " ")]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, site := range mapRanges(t, mapRangeDirs(t)) {
		if allowed[site] == 0 {
			t.Errorf("%s: a range over a map that %s does not list: show that its order cannot escape and add it", site, mapRangeAllowlist)
			continue
		}
		allowed[site]--
	}
	for site, n := range allowed {
		if n > 0 {
			t.Errorf("%s: listed in %s %s more time(s) than the code has it", site, mapRangeAllowlist, fmt.Sprint(n))
		}
	}
}
