package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// An Effect is one local "effectful" operation inside a declared
// function: an allocation site, a blocking synchronization op, or a
// source of run-to-run nondeterminism. The call-graph analyzers
// compute, per root annotation, the transitive closure of these over
// the call graph.
type Effect struct {
	Pos  token.Pos
	Desc string
}

// collectEffects fills a node's local effect lists. Nested function
// literals are attributed to the declaring function, wherever they run.
func collectEffects(n *Node) {
	info, tpkg, fd := n.Pkg.Info, n.Pkg.Types, n.Decl
	forEachAlloc(info, tpkg, fd, func(pos token.Pos, desc string) {
		n.Allocs = append(n.Allocs, Effect{Pos: pos, Desc: desc})
	})
	forEachBlocking(info, fd, func(pos token.Pos, desc string) {
		n.Blocking = append(n.Blocking, Effect{Pos: pos, Desc: desc})
	})
	forEachPurity(info, fd.Body, func(pos token.Pos, desc string) {
		n.Purity = append(n.Purity, Effect{Pos: pos, Desc: desc})
	})
}

// forEachBlocking emits every operation that can block or serialize the
// calling goroutine: channel send/receive/select/range, mutex and
// rwmutex locks, WaitGroup.Wait, Cond.Wait, and time.Sleep. A channel
// op costs ~40x an uncontended atomic even when the channel is just a
// pipe, which is why the hotblock analyzer audits these on the force
// and predict paths (ROADMAP item 3).
func forEachBlocking(info *types.Info, fd *ast.FuncDecl, emit func(pos token.Pos, desc string)) {
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SendStmt:
			emit(x.Pos(), "channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				emit(x.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			emit(x.Pos(), "select")
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					emit(x.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if isPkgIdent(info, sel.X, "time") && sel.Sel.Name == "Sleep" {
					emit(x.Pos(), "time.Sleep")
					return true
				}
				if desc := blockingSyncMethod(info, sel); desc != "" {
					emit(x.Pos(), desc)
				}
			}
		}
		return true
	})
}

// blockingSyncMethod recognizes the blocking methods of the sync
// package: Mutex/RWMutex Lock (and RLock), WaitGroup.Wait, Cond.Wait.
// Unlock/RUnlock/Done/Signal never block and are not flagged.
func blockingSyncMethod(info *types.Info, sel *ast.SelectorExpr) string {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return ""
	}
	t := s.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return ""
	}
	switch tn, m := named.Obj().Name(), sel.Sel.Name; {
	case tn == "Mutex" && m == "Lock":
		return "sync.Mutex.Lock"
	case tn == "RWMutex" && (m == "Lock" || m == "RLock"):
		return "sync.RWMutex." + m
	case tn == "WaitGroup" && m == "Wait":
		return "sync.WaitGroup.Wait"
	case tn == "Cond" && m == "Wait":
		return "sync.Cond.Wait"
	}
	return ""
}

// forEachPurity emits every source of run-to-run nondeterminism the
// bit-exact contract forbids under root: math/rand use, time.Now, and
// float or bit-exact-accumulator updates inside range over a map.
func forEachPurity(info *types.Info, root ast.Node, emit func(pos token.Pos, desc string)) {
	ast.Inspect(root, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			if isPkgIdent(info, x.X, "math/rand") || isPkgIdent(info, x.X, "math/rand/v2") {
				emit(x.Pos(), "math/rand."+x.Sel.Name+" (global seed state)")
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok &&
				isPkgIdent(info, sel.X, "time") && sel.Sel.Name == "Now" {
				emit(x.Pos(), "time.Now (wall-clock dependence)")
			}
		case *ast.RangeStmt:
			forEachMapRangeAccum(info, x, emit)
		}
		return true
	})
}
