package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// joinSuffixes are the packages where an unjoined goroutine can race
// with force evaluation or checkpointing: the board emulator's worker
// pool, the backend glue, and the integrator's predictor pipeline.
var joinSuffixes = []string{
	"internal/board",
	"internal/gbackend",
	"internal/hermite",
}

// GoroutineJoin requires every function containing a `go` statement in
// the concurrency-bearing packages to also contain a visible join
// mechanism: a sync.WaitGroup Add/Done/Wait, or channel traffic (make
// of a channel, send, receive, close, or range over one). Goroutines
// whose lifetime is managed by a field joined elsewhere carry a
// //grapelint:ignore goroutinejoin directive naming that field.
var GoroutineJoin = &Analyzer{
	Name: "goroutinejoin",
	Doc:  "require a join mechanism alongside go statements",
	Run:  runGoroutineJoin,
}

func runGoroutineJoin(p *Pass) {
	for _, pkg := range p.Pkgs {
		if !slices.ContainsFunc(joinSuffixes, func(s string) bool { return pathHasSuffix(pkg.Path, s) }) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				var gos []*ast.GoStmt
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						gos = append(gos, g)
					}
					return true
				})
				if len(gos) == 0 || hasJoinMechanism(pkg.Info, fd.Body) {
					continue
				}
				for _, g := range gos {
					p.Reportf(nil, g.Pos(), "go statement in %s without a join mechanism (WaitGroup or channel) in the same function", fd.Name.Name)
				}
			}
		}
	}
}

func hasJoinMechanism(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			switch builtinName(info, n.Fun) {
			case "close":
				found = true
			case "make":
				if tv, ok := info.Types[n]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						found = true
					}
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isWaitGroupMethod(info, sel) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isWaitGroupMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}
