package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// bitExactSuffixes are the packages whose outputs are locked by golden
// hashes (board/golden_test.go): any run-to-run nondeterminism there is a bug
// even if every test still passes on one machine.
var bitExactSuffixes = []string{
	"internal/gfixed",
	"internal/chip",
	"internal/board",
	"internal/gbackend",
}

func isBitExactPath(path string) bool {
	return slices.ContainsFunc(bitExactSuffixes, func(s string) bool { return pathHasSuffix(path, s) })
}

// forEachMapRangeAccum emits order-sensitive accumulation into state
// declared outside a range-over-map body.
func forEachMapRangeAccum(info *types.Info, rs *ast.RangeStmt, emit func(pos token.Pos, desc string)) {
	if rs.X == nil {
		return
	}
	tv, ok := info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ASSIGN, token.DEFINE:
				for i := range n.Lhs {
					if i < len(n.Rhs) && selfReferential(n.Lhs[i], n.Rhs[i]) &&
						isFloatExpr(info, n.Lhs[i]) && declaredOutside(info, n.Lhs[i], rs) {
						emit(n.Pos(), "float accumulation over map iteration order (assignment to "+types.ExprString(n.Lhs[i])+")")
					}
				}
			default: // +=, -=, *=, ...
				for _, lhs := range n.Lhs {
					if isFloatExpr(info, lhs) && declaredOutside(info, lhs, rs) {
						emit(n.Pos(), "float accumulation over map iteration order ("+types.ExprString(lhs)+" "+n.Tok.String()+")")
					}
				}
			}
		case *ast.CallExpr:
			// Accum.Add / Partial.Merge-style accumulation: a method named
			// Add/Merge on a receiver declared in a bit-exact package.
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Add" && sel.Sel.Name != "Merge") {
				return true
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.MethodVal {
				return true
			}
			if recvFromBitExact(s.Recv()) && declaredOutside(info, sel.X, rs) {
				emit(n.Pos(), "accumulator "+types.ExprString(sel.X)+"."+sel.Sel.Name+" inside range over map: iteration order changes the rounding sequence")
			}
		}
		return true
	})
}

// selfReferential reports whether rhs mentions lhs textually — the
// `sum = sum + x` accumulation shape.
func selfReferential(lhs, rhs ast.Expr) bool {
	want := types.ExprString(lhs)
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == want {
			found = true
		}
		return !found
	})
	return found
}

func isFloatExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// declaredOutside reports whether the base variable of e is declared
// outside the range statement (so a per-iteration update accumulates
// across iterations).
func declaredOutside(info *types.Info, e ast.Expr, rs *ast.RangeStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return false
			}
			return v.Pos() < rs.Pos() || v.Pos() > rs.End()
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

func recvFromBitExact(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return isBitExactPath(n.Obj().Pkg().Path())
}
