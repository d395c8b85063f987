package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// An Analyzer is one named check, run once over the whole module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass carries one analyzer's run over the module: every package and
// the call graph built over them. Analyzers report through Reportf;
// suppression via //grapelint:ignore happens in Run.
type Pass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *CallGraph
	Fset     *token.FileSet
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite, in reporting order: the
// package-scoped check, then the three closures over the module call
// graph.
func All() []*Analyzer {
	return []*Analyzer{GfixedBoundary, NoAllocDeep, HotBlock, PurityDeep}
}

const (
	noallocDirective = "//grape:noalloc"
	hotpathDirective = "//grape:hotpath"
	ignoreDirective  = "//grapelint:ignore"
)

// ignoreEntry is one parsed //grapelint:ignore <analyzer> <reason>.
type ignoreEntry struct {
	analyzer string
	pos      token.Position // where the directive appears
	used     bool           // suppressed at least one finding (audit)
}

// suppressions is the module-wide //grapelint:ignore index: parsed
// directives and malformed-directive findings.
type suppressions struct {
	entries map[string][]*ignoreEntry // file → directives
	bad     []Finding
}

func newSuppressions(pkgs []*Package) *suppressions {
	s := &suppressions{entries: make(map[string][]*ignoreEntry)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, ignoreDirective)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						s.bad = append(s.bad, Finding{
							Pos:      pos,
							Analyzer: "grapelint",
							Message:  "malformed ignore directive: want //grapelint:ignore <analyzer> <reason>",
						})
						continue
					}
					s.entries[pos.Filename] = append(s.entries[pos.Filename], &ignoreEntry{analyzer: fields[0], pos: pos})
				}
			}
		}
	}
	return s
}

// match reports whether a finding is covered by an ignore directive
// naming its analyzer on the same line or the line directly above it.
func (s *suppressions) match(f Finding) bool {
	for _, e := range s.entries[f.Pos.Filename] {
		if e.analyzer == f.Analyzer && (e.pos.Line == f.Pos.Line || e.pos.Line == f.Pos.Line-1) {
			e.used = true
			return true
		}
	}
	return false
}

// audit turns every directive that suppressed nothing into a finding:
// stale suppressions hide future regressions and must be deleted (or
// re-justified) when the code they excused goes away. Run sorts them.
func (s *suppressions) audit() []Finding {
	var out []Finding
	for _, entries := range s.entries {
		for _, e := range entries {
			if !e.used {
				out = append(out, Finding{
					Pos:      e.pos,
					Analyzer: "suppression",
					Message:  fmt.Sprintf("unused suppression: no %s finding on this line or the line below", e.analyzer),
				})
			}
		}
	}
	return out
}

// hasDirective reports whether the doc comment contains the given
// standalone directive line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// Run builds the call graph over the packages, executes each analyzer
// once over them, applies ignore directives, audits unused ones, and
// returns the surviving findings sorted by position. The package set
// should be the whole module: reachability through an omitted package
// is invisible.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	sup := newSuppressions(pkgs)
	graph := BuildCallGraph(pkgs)
	var raw []Finding
	for _, az := range analyzers {
		az.Run(&Pass{Analyzer: az, Pkgs: pkgs, Graph: graph, Fset: graph.Fset, findings: &raw})
	}

	out := append([]Finding{}, sup.bad...)
	for _, f := range raw {
		if !sup.match(f) {
			out = append(out, f)
		}
	}
	out = append(out, sup.audit()...)
	sortFindings(out)
	return out
}

// sortFindings orders findings by (file, line, column, analyzer,
// message) — a deterministic order so output can be diffed across runs.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pathHasSuffix reports whether the import path is exactly suffix or
// ends in "/"+suffix — used for path-scoped analyzers so fixtures under
// fake paths like "grape6/internal/chip" behave like the real package.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isPkgIdent reports whether expr is an identifier naming an import of
// the given package path (e.g. the "math" in math.Float64bits).
func isPkgIdent(info *types.Info, expr ast.Expr, path string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// builtinName returns the name of the builtin that fun resolves to, or
// "" if fun is not a builtin.
func builtinName(info *types.Info, fun ast.Expr) string {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
