package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds grapelint's module-wide static call graph: the
// substrate of the closure analyzers (noalloc, hotblock,
// deterministic). Resolution rules, in decreasing exactness:
//
//   - static calls to declared functions and methods on concrete
//     receivers resolve exactly (generics to their origin declaration);
//   - interface method calls resolve conservatively to every module
//     type whose method set implements the interface (edge kind
//     EdgeInterface, with the per-site reason recorded) — external
//     implementations are invisible, which is the one direction the
//     graph can under-approximate;
//   - calls through function values resolve when the value has exactly
//     one function assigned in the same function body (EdgeFuncValue);
//     otherwise the site is recorded as a DynamicSite with a reason;
//   - a module function referenced but not called (passed as a value,
//     assigned to a field) gets an EdgeRef from the referencing
//     function — whoever receives the value may call it, so effects
//     behind it are conservatively reachable from the referencer;
//   - go/defer statements contribute edges of kind EdgeGo/EdgeDefer;
//     analyzers decide per contract whether to traverse them (a
//     goroutine's blocking op does not stall its spawner).
//
// A function literal's body is its encloser's: its calls and effects
// count as those of the declared function it sits in, wherever it runs.

// EdgeKind classifies how a call edge was resolved.
type EdgeKind uint8

const (
	EdgeStatic    EdgeKind = iota // direct call of a declared function
	EdgeMethod                    // method call on a concrete receiver
	EdgeInterface                 // interface dispatch (conservative)
	EdgeFuncValue                 // call through a locally-bound function value
	EdgeRef                       // function referenced as a value (conservative)
	EdgeGo                        // go statement
	EdgeDefer                     // defer statement
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeMethod:
		return "method"
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "funcvalue"
	case EdgeRef:
		return "ref"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	}
	return "?"
}

// Edge is one resolved call (or reference) from a Node.
type Edge struct {
	To     *Node
	Pos    token.Pos // call/reference site
	Kind   EdgeKind
	Reason string // why a conservative edge exists ("" for exact kinds)
}

// DynamicSite is a call the graph could not resolve to any declaration.
type DynamicSite struct {
	Pos    token.Pos
	Reason string
}

// Node is one declared module function or method.
type Node struct {
	Obj     *types.Func
	Decl    *ast.FuncDecl
	Pkg     *Package
	Noalloc bool // carries //grape:noalloc
	Hotpath bool // carries //grape:hotpath

	Edges    []Edge
	Dynamics []DynamicSite

	// Local effect sites, collected once at build time (effects.go).
	Allocs   []Effect
	Blocking []Effect
	Purity   []Effect
}

// Name returns a short human name: pkg.Func or pkg.(Recv).Method.
func (n *Node) Name() string {
	pkg := n.Pkg.Path
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			star = "*"
		}
		tn := t.String()
		if named, ok := t.(*types.Named); ok {
			tn = named.Obj().Name()
		}
		return fmt.Sprintf("%s.(%s%s).%s", pkg, star, tn, n.Obj.Name())
	}
	return pkg + "." + n.Obj.Name()
}

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	Nodes map[*types.Func]*Node
	Fset  *token.FileSet
	list  []*Node // deterministic order (by declaration position)
}

// All returns every node, ordered by declaration position.
func (g *CallGraph) All() []*Node { return g.list }

// Lookup finds a node by its short Name (tests and tooling).
func (g *CallGraph) Lookup(name string) *Node {
	for _, n := range g.list {
		if n.Name() == name {
			return n
		}
	}
	return nil
}

// Roots returns the nodes selected by keep, in declaration order.
func (g *CallGraph) Roots(keep func(*Node) bool) []*Node {
	var out []*Node
	for _, n := range g.list {
		if keep(n) {
			out = append(out, n)
		}
	}
	return out
}

// BuildCallGraph constructs the graph over the given packages. The
// packages must share one FileSet (LoadModule and the fixture loaders
// guarantee this).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*Node)}
	if len(pkgs) > 0 {
		g.Fset = pkgs[0].Fset
	}
	b := &graphBuilder{g: g, pkgs: pkgs}
	b.collectNodes()
	b.collectNamedTypes()
	for _, n := range g.list {
		b.resolveBody(n)
		collectEffects(n)
	}
	return g
}

type graphBuilder struct {
	g     *CallGraph
	pkgs  []*Package
	named []types.Type // all module named types (for interface dispatch)
}

func (b *graphBuilder) collectNodes() {
	for _, pkg := range b.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				b.g.Nodes[obj] = &Node{
					Obj:     obj,
					Decl:    fd,
					Pkg:     pkg,
					Noalloc: hasDirective(fd.Doc, noallocDirective),
					Hotpath: hasDirective(fd.Doc, hotpathDirective),
				}
			}
		}
	}
	for _, n := range b.g.Nodes {
		b.g.list = append(b.g.list, n)
	}
	sort.Slice(b.g.list, func(i, j int) bool {
		return b.g.list[i].Obj.Pos() < b.g.list[j].Obj.Pos()
	})
}

func (b *graphBuilder) collectNamedTypes() {
	for _, pkg := range b.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			b.named = append(b.named, named)
		}
	}
}

// node returns the module node for fn (via its generic origin), or nil
// for external or bodyless functions.
func (b *graphBuilder) node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return b.g.Nodes[fn.Origin()]
}

// resolveBody walks one declared function, attributing nested literals
// to it, and appends edges and dynamic sites.
func (b *graphBuilder) resolveBody(n *Node) {
	info := n.Pkg.Info

	// Tag the call expressions that are go/defer targets, and the idents
	// that appear in call-function position (so the reference pass can
	// skip them).
	kindOf := map[*ast.CallExpr]EdgeKind{}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			kindOf[x.Call] = EdgeGo
		case *ast.DeferStmt:
			kindOf[x.Call] = EdgeDefer
		}
		return true
	})

	funIdents := map[*ast.Ident]bool{}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id := calleeIdent(call.Fun); id != nil {
			funIdents[id] = true
		}
		b.resolveCall(n, call, kindOf[call]) // EdgeStatic unless tagged
		return true
	})

	// Reference pass: module functions used as values.
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || funIdents[id] {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if target := b.node(fn); target != nil {
			n.Edges = append(n.Edges, Edge{
				To: target, Pos: id.Pos(), Kind: EdgeRef,
				Reason: "function value may be called by its receiver",
			})
		}
		return true
	})
}

// calleeIdent returns the identifier naming the callee of fun, peeling
// parens and generic instantiation; nil if fun is not an identifier or
// selector call.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	case *ast.IndexExpr:
		return calleeIdent(f.X)
	case *ast.IndexListExpr:
		return calleeIdent(f.X)
	}
	return nil
}

func (b *graphBuilder) resolveCall(n *Node, call *ast.CallExpr, kind EdgeKind) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Peel generic instantiation: f[T](...) calls f. An index whose base
	// is not of function type is a container of func values — dynamic.
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			if tv, ok := info.Types[f.X]; !ok || tv.Type == nil {
				return
			} else if _, isFunc := tv.Type.(*types.Signature); !isFunc {
				n.Dynamics = append(n.Dynamics, DynamicSite{Pos: call.Pos(), Reason: "call of an indexed func value"})
				return
			}
			fun = ast.Unparen(f.X)
			continue
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
			continue
		}
		break
	}

	switch f := fun.(type) {
	case *ast.FuncLit:
		return // body attributed to the encloser

	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			if target := b.node(obj); target != nil {
				n.Edges = append(n.Edges, Edge{To: target, Pos: call.Pos(), Kind: kind})
			}
			return
		case *types.Builtin:
			return
		case *types.TypeName:
			return // conversion
		case *types.Var:
			b.resolveFuncValue(n, call, f, obj, kind)
			return
		case nil:
			if tv, ok := info.Types[f]; ok && tv.IsType() {
				return // conversion to a type expression
			}
		}
		n.Dynamics = append(n.Dynamics, DynamicSite{Pos: call.Pos(), Reason: "call through unresolved identifier"})

	case *ast.SelectorExpr:
		if sel := info.Selections[f]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal:
				b.resolveMethodCall(n, call, f, sel, kind)
			case types.FieldVal:
				n.Dynamics = append(n.Dynamics, DynamicSite{
					Pos:    call.Pos(),
					Reason: fmt.Sprintf("call through func-valued field %s", f.Sel.Name),
				})
			case types.MethodExpr:
				if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
					if target := b.node(fn); target != nil {
						n.Edges = append(n.Edges, Edge{To: target, Pos: call.Pos(), Kind: kind})
					}
				}
			}
			return
		}
		// Qualified reference: pkg.F(...) or pkg.Var(...).
		switch obj := info.Uses[f.Sel].(type) {
		case *types.Func:
			if target := b.node(obj); target != nil {
				n.Edges = append(n.Edges, Edge{To: target, Pos: call.Pos(), Kind: kind})
			}
			// External (stdlib) calls carry no edge; the effect
			// classifiers recognize the effectful ones by name.
			return
		case *types.TypeName:
			return // conversion
		case *types.Var:
			n.Dynamics = append(n.Dynamics, DynamicSite{
				Pos:    call.Pos(),
				Reason: fmt.Sprintf("call through package-level func value %s", f.Sel.Name),
			})
			return
		}
		if tv, ok := info.Types[f]; ok && tv.IsType() {
			return // conversion to a qualified type
		}
		n.Dynamics = append(n.Dynamics, DynamicSite{Pos: call.Pos(), Reason: "call through unresolved selector"})

	default:
		// Conversion like (func())(x), or a call of a call's result.
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return
		}
		n.Dynamics = append(n.Dynamics, DynamicSite{Pos: call.Pos(), Reason: "call of a non-identifier expression"})
	}
}

// resolveMethodCall handles x.M(...) where the selection is a method
// value: exact for concrete receivers, conservative fan-out over module
// implementations for interface receivers.
func (b *graphBuilder) resolveMethodCall(n *Node, call *ast.CallExpr, selExpr *ast.SelectorExpr, sel *types.Selection, kind EdgeKind) {
	mobj, ok := sel.Obj().(*types.Func)
	if !ok {
		return
	}
	recv := sel.Recv()
	if !types.IsInterface(recv) {
		if target := b.node(mobj); target != nil {
			k := kind
			if k == EdgeStatic {
				k = EdgeMethod
			}
			n.Edges = append(n.Edges, Edge{To: target, Pos: call.Pos(), Kind: k})
		}
		return
	}

	iface, _ := recv.Underlying().(*types.Interface)
	if iface == nil {
		return
	}
	reason := fmt.Sprintf("interface dispatch %s.%s: conservative edge to every module implementation",
		types.TypeString(recv, types.RelativeTo(n.Pkg.Types)), mobj.Name())
	for _, t := range b.named {
		pt := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(pt, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, mobj.Pkg(), mobj.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if target := b.node(fn); target != nil {
			n.Edges = append(n.Edges, Edge{
				To: target, Pos: call.Pos(), Kind: EdgeInterface, Reason: reason,
			})
		}
	}
}

// resolveFuncValue handles f(...) where f is a variable: if exactly one
// function is bound to f inside the enclosing body, the call resolves
// to it; a func-literal binding needs no edge (the literal's body is
// attributed to the encloser); anything else is a dynamic site.
func (b *graphBuilder) resolveFuncValue(n *Node, call *ast.CallExpr, id *ast.Ident, v *types.Var, kind EdgeKind) {
	info := n.Pkg.Info
	var bound []ast.Expr
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				li, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || i >= len(x.Rhs) {
					continue
				}
				obj := info.Uses[li]
				if obj == nil {
					obj = info.Defs[li]
				}
				if obj == v {
					bound = append(bound, ast.Unparen(x.Rhs[i]))
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if info.Defs[name] == v && i < len(x.Values) {
					bound = append(bound, ast.Unparen(x.Values[i]))
				}
			}
		}
		return true
	})
	if len(bound) == 1 {
		switch rhs := bound[0].(type) {
		case *ast.FuncLit:
			return // attributed to the encloser
		case *ast.Ident:
			if fn, ok := info.Uses[rhs].(*types.Func); ok {
				if target := b.node(fn); target != nil {
					n.Edges = append(n.Edges, Edge{
						To: target, Pos: call.Pos(), Kind: EdgeFuncValue,
						Reason: fmt.Sprintf("func value %s bound once in this body", id.Name),
					})
					return
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[rhs.Sel].(*types.Func); ok {
				if target := b.node(fn); target != nil {
					n.Edges = append(n.Edges, Edge{
						To: target, Pos: call.Pos(), Kind: EdgeFuncValue,
						Reason: fmt.Sprintf("func value %s bound once in this body", id.Name),
					})
					return
				}
			}
		}
	}
	n.Dynamics = append(n.Dynamics, DynamicSite{
		Pos:    call.Pos(),
		Reason: fmt.Sprintf("call through func value %s (%d local bindings)", id.Name, len(bound)),
	})
}
