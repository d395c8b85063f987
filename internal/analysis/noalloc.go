package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// forEachAlloc walks one declared function (nested literals included)
// and emits a (position, description) pair for every construct that
// allocates on the steady-state path: the local effects the noalloc
// closure collects per graph node. The check is syntactic over typed
// ASTs; escape analysis is deliberately not modeled — a construct the
// compiler might prove non-escaping is still flagged, because the hot
// path should not depend on optimizer behavior.
func forEachAlloc(info *types.Info, tpkg *types.Package, fd *ast.FuncDecl, emit func(pos token.Pos, desc string)) {
	// First pass: append calls of the reuse form x = append(x, ...) grow
	// a caller-owned buffer and are allowed (amortized, steady-state
	// alloc-free once warm).
	reused := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if ok && builtinName(info, call.Fun) == "append" && len(call.Args) > 0 &&
				types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				reused[call] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			emitAllocCall(info, tpkg, n, reused, emit)
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				emit(n.Pos(), "map literal allocates")
			case *types.Slice:
				emit(n.Pos(), "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					emit(n.Pos(), "pointer to composite literal escapes")
				}
			}
		case *ast.FuncLit:
			if capt := capturedVar(info, fd, n); capt != "" {
				emit(n.Pos(), "closure captures "+capt+" by reference")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				tv := info.Types[n]
				if tv.Value == nil && isStringType(tv.Type) {
					emit(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.GoStmt:
			emit(n.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
}

func emitAllocCall(info *types.Info, tpkg *types.Package, call *ast.CallExpr, reused map[*ast.CallExpr]bool, emit func(token.Pos, string)) {
	switch bn := builtinName(info, call.Fun); bn {
	case "make", "new":
		emit(call.Pos(), bn+" allocates")
		return
	case "append":
		if reused[call] {
			return
		}
		if len(call.Args) > 0 {
			// append(buf[:0], ...) refills a reused buffer in place.
			if _, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr); ok {
				return
			}
		}
		emit(call.Pos(), "append to non-reused slice allocates")
		return
	case "panic":
		// panic is a cold path but its argument still boxes eagerly.
		if len(call.Args) == 1 {
			emitBoxing(info, tpkg, call.Args[0], emit)
		}
		return
	case "":
		// not a builtin; fall through
	default:
		return // len, cap, copy, min, max, ... are alloc-free
	}

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		emitAllocConversion(info, call, tv.Type, emit)
		return
	}
	if desc := allocatingStdlibCall(info, call); desc != "" {
		emit(call.Pos(), desc)
		// Its arguments may box as well; fall through to the check below.
	}
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // foo(xs...) passes the slice itself
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) {
			emitBoxing(info, tpkg, arg, emit)
		}
	}
}

// allocatingStdlibCall recognizes calls into standard-library functions
// that are known to allocate (the call-graph walk cannot see their
// bodies). The list is deliberately short and certain: formatting,
// error construction, and the reflect-based sort entry points.
func allocatingStdlibCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "fmt":
		return "fmt." + fn.Name() + " allocates"
	case "errors":
		if fn.Name() == "New" || fn.Name() == "Join" {
			return "errors." + fn.Name() + " allocates"
		}
	case "sort":
		switch fn.Name() {
		case "Slice", "SliceStable", "Sort", "Stable":
			return "sort." + fn.Name() + " allocates (interface conversion)"
		}
	}
	return ""
}

func emitAllocConversion(info *types.Info, call *ast.CallExpr, target types.Type, emit func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if types.IsInterface(target) {
		emitBoxing(info, nil, arg, emit)
		return
	}
	at := info.Types[arg].Type
	if at == nil {
		return
	}
	if isStringType(target) && isByteOrRuneSlice(at) ||
		isByteOrRuneSlice(target) && isStringType(at) && info.Types[arg].Value == nil {
		emit(call.Pos(), "string conversion allocates")
	}
}

// emitBoxing flags arg if storing it in an interface allocates:
// constants, nil, interfaces, and pointer-shaped values are exempt.
func emitBoxing(info *types.Info, tpkg *types.Package, arg ast.Expr, emit func(token.Pos, string)) {
	tv := info.Types[arg]
	if tv.Value != nil || tv.IsNil() || tv.Type == nil {
		return
	}
	if types.IsInterface(tv.Type) || isPointerShaped(tv.Type) {
		return
	}
	qual := types.Qualifier(nil)
	if tpkg != nil {
		qual = types.RelativeTo(tpkg)
	}
	emit(arg.Pos(), "interface boxing of "+types.TypeString(tv.Type, qual)+" allocates")
}

// capturedVar returns the name of a variable the func literal captures
// from the enclosing function, or "" if it captures nothing (a
// capture-free literal compiles to a static func value — no alloc).
func capturedVar(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos >= lit.Pos() && pos <= lit.End() {
			return true // declared inside the literal
		}
		if pos >= fd.Pos() && pos <= fd.End() {
			name = id.Name
		}
		return true
	})
	return name
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isPointerShaped reports whether values of t fit in a pointer word and
// therefore do not allocate when stored in an interface.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
