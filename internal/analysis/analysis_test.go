package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Shared across fixtures so the source importer compiles each stdlib
// package (math, sync, time, math/rand) only once.
var (
	fixFset = token.NewFileSet()
	fixImp  = importer.ForCompiler(fixFset, "source", nil)
)

// loadFixture type-checks testdata/<dir> under the given fake import
// path, with the given fixture packages visible as imports (the
// standard library comes from the shared source importer); path-scoped
// analyzers key off the path, which is why fixtures can impersonate
// packages like grape6/internal/chip.
func loadFixture(t *testing.T, dir, path string, deps ...*Package) *Package {
	t.Helper()
	full := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fixFset, filepath.Join(full, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	im := depImporter{deps: make(map[string]*types.Package)}
	for _, d := range deps {
		im.deps[d.Path] = d.Types
	}
	conf := types.Config{Importer: im}
	tpkg, err := conf.Check(path, fixFset, files, info)
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", dir, err)
	}
	return &Package{Path: path, Dir: full, Fset: fixFset, Files: files, Types: tpkg, Info: info}
}

// depImporter resolves in-fixture dependencies by package path and
// falls back to the shared source importer for the standard library.
type depImporter struct {
	deps map[string]*types.Package
}

func (im depImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.deps[path]; ok {
		return p, nil
	}
	return fixImp.Import(path)
}

var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// checkFixture runs the full suite over one fixture package and
// compares the findings against its `want "substring"` comments,
// position by position.
func checkFixture(t *testing.T, dir, path string) {
	t.Helper()
	pkg := loadFixture(t, dir, path)
	findings := Run([]*Package{pkg}, All())

	type slot struct {
		substr string
		hit    bool
	}
	wants := make(map[string][]*slot) // "file:line" → expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := fixFset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &slot{substr: m[1]})
				}
			}
		}
	}

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, s := range wants[key] {
			if !s.hit && strings.Contains(f.Message, s.substr) {
				s.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, slots := range wants {
		for _, s := range slots {
			if !s.hit {
				t.Errorf("%s: expected finding containing %q, got none", key, s.substr)
			}
		}
	}
}

func TestNoAllocFixture(t *testing.T) {
	checkFixture(t, "noalloc", "fixture/noalloc")
}

func TestNoAllocDeepFixture(t *testing.T) {
	checkFixture(t, "noallocdeep", "fixture/noallocdeep")
}

func TestDeterministicFixture(t *testing.T) {
	checkFixture(t, "deterministic", "grape6/internal/chip")
}

func TestNoDeprecatedFixture(t *testing.T) {
	checkFixture(t, "nodeprecated", "fixture/nodeprecated")
}

func TestGfixedBoundaryFixture(t *testing.T) {
	checkFixture(t, "gfixedboundary", "grape6/internal/hermite")
}

func TestGfixedInsideIsExempt(t *testing.T) {
	checkFixture(t, "gfixedclean", "grape6/internal/gfixed")
}

func TestGoroutineJoinFixture(t *testing.T) {
	checkFixture(t, "goroutinejoin", "grape6/internal/board")
}

func TestIgnoreDirectives(t *testing.T) {
	checkFixture(t, "ignore", "grape6/internal/gbackend")
}
