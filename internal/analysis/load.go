// Package analysis is grapelint's engine: a stdlib-only loader that
// type-checks the whole module plus a small analyzer framework with four
// repo-specific checks (gfixedboundary, and the call-graph closures
// noalloc, hotblock, deterministic). See DESIGN.md §7 "Static
// guarantees".
//
// The loader deliberately avoids golang.org/x/tools: the repo has no
// module dependencies and the analyzers only need go/parser + go/types.
// Stdlib packages are imported with the "source" importer (compiled from
// GOROOT source), module-local packages by recursing into their
// directories with memoization.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked module package: everything an analyzer
// needs to inspect it.
type Package struct {
	Path  string // import path, e.g. "grape6/internal/chip"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// loader implements types.Importer for a single module: module-local
// import paths are parsed and checked recursively, everything else is
// delegated to the compiler's source importer.
type loader struct {
	fset *token.FileSet
	mod  string // module path from go.mod
	root string // module root directory
	std  types.Importer
	pkgs map[string]*Package // memoized by import path
	busy map[string]bool     // import-cycle guard
}

func newLoader(root, mod string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		mod:  mod,
		root: root,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*Package),
		busy: make(map[string]bool),
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.mod || strings.HasPrefix(path, l.mod+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module-local package, memoized.
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.mod)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// The host's GOOS/GOARCH and build tags pick the files, as go build
		// does: a package may split a function across arch-specific files.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// LoadModule type-checks every package of the module rooted at root and
// returns them sorted by import path.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader(root, mod)

	var paths []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := l.mod
		if rel != "." {
			ip = l.mod + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	paths = dedup(paths)

	var out []*Package
	for _, ip := range paths {
		p, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || sorted[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}
