package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoDeprecated flags every internal use of a symbol whose declaration
// carries the standard "// Deprecated:" marker. The repo's policy is
// that deprecated shims exist only for one release while callers
// migrate; this analyzer keeps new code off them so they can actually
// be deleted (the ForceBatch/Forces wrappers were retired this way).
var NoDeprecated = &Analyzer{
	Name: "nodeprecated",
	Doc:  "forbid internal calls to // Deprecated: symbols",
	Run:  runNoDeprecated,
}

func runNoDeprecated(p *Pass) {
	dep := deprecatedIndex(p.Pkgs)
	for _, pkg := range p.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if dep[obj] {
				p.Reportf(nil, id.Pos(), "use of deprecated symbol %s", obj.Name())
			}
		}
	}
}

// isDeprecatedDoc reports whether a doc comment carries the standard
// "Deprecated:" marker.
func isDeprecatedDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimPrefix(text, "/*")
		if strings.HasPrefix(strings.TrimSpace(text), "Deprecated:") {
			return true
		}
	}
	return false
}

// deprecatedIndex collects every object in the module whose declaration
// is marked "Deprecated:", so a use is flagged in whichever package it
// occurs.
func deprecatedIndex(pkgs []*Package) map[types.Object]bool {
	dep := make(map[types.Object]bool)
	mark := func(pkg *Package, id *ast.Ident) {
		if obj := pkg.Info.Defs[id]; obj != nil {
			dep[obj] = true
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if isDeprecatedDoc(d.Doc) {
						mark(pkg, d.Name)
					}
				case *ast.GenDecl:
					whole := isDeprecatedDoc(d.Doc)
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if whole || isDeprecatedDoc(s.Doc) {
								mark(pkg, s.Name)
							}
						case *ast.ValueSpec:
							if whole || isDeprecatedDoc(s.Doc) {
								for _, n := range s.Names {
									mark(pkg, n)
								}
							}
						}
					}
				}
			}
		}
	}
	return dep
}
