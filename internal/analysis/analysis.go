package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Finding is one analyzer diagnostic. Findings of the call-graph
// analyzers also carry the position of the chain's root function, so
// package-scoped runs can match either end of a cross-package chain.
type Finding struct {
	Pos      token.Position
	Root     token.Position // zero for findings outside the call graph
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
// suppression via //grapelint:ignore happens in the driver.
type Pass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *CallGraph
	Fset     *token.FileSet
	findings *[]Finding
}

// Reportf records a finding at pos. root is the chain's root function
// for a call-graph finding (its position is attached so package-scoped
// runs can match either end of a cross-package chain), nil otherwise.
func (p *Pass) Reportf(root *Node, pos token.Pos, format string, args ...any) {
	f := Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if root != nil {
		f.Root = p.Fset.Position(root.Obj.Pos())
	}
	*p.findings = append(*p.findings, f)
}

// All returns every analyzer in the suite, in reporting order: the
// three package-scoped checks, then the three closures over the module
// call graph.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeprecated, GfixedBoundary, GoroutineJoin,
		NoAllocDeep, HotBlock, PurityDeep,
	}
}

const (
	noallocDirective = "//grape:noalloc"
	hotpathDirective = "//grape:hotpath"
	ignoreDirective  = "//grapelint:ignore"
)

// ignoreEntry is one parsed //grapelint:ignore <analyzer> <reason>.
type ignoreEntry struct {
	analyzer string
	file     string
	line     int // line the directive appears on
	pos      token.Position
	used     bool // suppressed at least one finding (audit)
}

// lineRange is the line extent of one statement.
type lineRange struct{ start, end int }

// suppressions is the module-wide //grapelint:ignore index: parsed
// directives, malformed-directive findings, and per-file statement
// extents so a directive on the line above a multi-line statement
// covers findings anywhere inside it.
type suppressions struct {
	entries map[string][]*ignoreEntry // file → directives
	stmts   map[string][]lineRange    // file → statement line extents
	bad     []Finding
}

func newSuppressions(pkgs []*Package) *suppressions {
	s := &suppressions{
		entries: make(map[string][]*ignoreEntry),
		stmts:   make(map[string][]lineRange),
	}
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
					s.entries[pos.Filename] = append(s.entries[pos.Filename], &ignoreEntry{
						analyzer: fields[0],
						file:     pos.Filename,
						line:     pos.Line,
						pos:      pos,
					})
				}
			}
			fname := pkg.Fset.Position(f.Pos()).Filename
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(ast.Stmt)
				if !ok {
					return true
				}
				switch st.(type) {
				case *ast.BlockStmt:
					return true // too broad to anchor a directive to
				}
				s.stmts[fname] = append(s.stmts[fname], lineRange{
					start: pkg.Fset.Position(st.Pos()).Line,
					end:   pkg.Fset.Position(st.End()).Line,
				})
				return true
			})
		}
	}
	return s
}

// stmtStart returns the starting line of the innermost non-block
// statement spanning the given line, or 0 if none does.
func (s *suppressions) stmtStart(file string, line int) int {
	best := lineRange{}
	for _, r := range s.stmts[file] {
		if r.start > line || r.end < line {
			continue
		}
		if best.start == 0 || r.start > best.start ||
			(r.start == best.start && r.end < best.end) {
			best = r
		}
	}
	return best.start
}

// match reports whether a finding is covered by an ignore directive on
// the same line, the line directly above it, or the line directly above
// the innermost statement containing it (so a directive above a
// multi-line expression suppresses findings on its continuation lines).
func (s *suppressions) match(f Finding) bool {
	entries := s.entries[f.Pos.Filename]
	if len(entries) == 0 {
		return false
	}
	stmtStart := s.stmtStart(f.Pos.Filename, f.Pos.Line)
	for _, e := range entries {
		if e.analyzer != f.Analyzer && e.analyzer != "all" {
			continue
		}
		if e.line == f.Pos.Line || e.line == f.Pos.Line-1 ||
			(stmtStart > 0 && e.line == stmtStart-1) {
			e.used = true
			return true
		}
	}
	return false
}

// audit turns every directive that suppressed nothing into a finding:
// stale suppressions hide future regressions and must be deleted (or
// re-justified) when the code they excused goes away.
func (s *suppressions) audit() []Finding {
	var files []string
	for f := range s.entries {
		files = append(files, f)
	}
	sort.Strings(files)
	var out []Finding
	for _, f := range files {
		for _, e := range s.entries[f] {
			if !e.used {
				out = append(out, Finding{
					Pos:      e.pos,
					Analyzer: "suppression",
					Message:  fmt.Sprintf("unused suppression: no %s finding on this line or the statement below", e.analyzer),
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
// message) — a deterministic order so CI output and -json payloads can
// be diffed across runs.
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
