package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// The call-graph analyzers: each picks a set of root nodes from the
// call graph, walks the transitive closure of calls (breadth-first, so
// reported chains are shortest), and reports the effect sites its
// contract forbids in the roots themselves and in everything they
// reach. Chains are printed hop by hop with the call site of every hop,
// so a finding is actionable without re-running the analysis by hand.

// step records how a node was first reached during a BFS.
type step struct {
	from *Node
	edge Edge
}

// reachFrom walks the closure of root over edges accepted by follow and
// returns the visit order plus the incoming step per node. The root
// itself is first, with no step.
func reachFrom(root *Node, follow func(Edge) bool) ([]*Node, map[*Node]step) {
	via := make(map[*Node]step)
	seen := map[*Node]bool{root: true}
	order := []*Node{root}
	for q := 0; q < len(order); q++ {
		n := order[q]
		for _, e := range n.Edges {
			if e.To == nil || seen[e.To] || !follow(e) {
				continue
			}
			seen[e.To] = true
			via[e.To] = step{from: n, edge: e}
			order = append(order, e.To)
		}
	}
	return order, via
}

// chainString renders the hop-by-hop path root → ... → target, with the
// call site of every hop: "a.f → b.g (f.go:12) → c.h (g.go:40)".
func chainString(fset *token.FileSet, via map[*Node]step, root, target *Node) string {
	var hops []step
	for n := target; n != root; {
		s, ok := via[n]
		if !ok {
			break
		}
		hops = append(hops, s)
		n = s.from
	}
	var sb strings.Builder
	sb.WriteString(root.Name())
	for i := len(hops) - 1; i >= 0; i-- {
		s := hops[i]
		p := fset.Position(s.edge.Pos)
		fmt.Fprintf(&sb, " -> %s (%s:%d", s.edge.To.Name(), filepath.Base(p.Filename), p.Line)
		if s.edge.Kind != EdgeStatic && s.edge.Kind != EdgeMethod {
			fmt.Fprintf(&sb, ", %s", s.edge.Kind)
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// NoAllocDeep enforces the //grape:noalloc contract: annotated
// functions (force kernels, predictor, accumulator primitives, board
// pool stages) and everything they reach through the call graph must
// not allocate on the steady-state path. A site in an annotated
// function reads "in noalloc function F"; a site in an unannotated
// callee carries the call chain from the kernel that reaches it. Calls
// the graph cannot resolve (function values with several bindings,
// func-typed fields) are findings too: the contract cannot be verified
// past them.
var NoAllocDeep = &Analyzer{
	Name: "noalloc",
	Doc:  "forbid allocations in //grape:noalloc kernels and everything they reach",
	Run:  runNoAllocDeep,
}

func runNoAllocDeep(p *Pass) {
	reported := effectSet{}
	for _, root := range p.Graph.Roots(func(n *Node) bool { return n.Noalloc }) {
		order, via := reachFrom(root, func(Edge) bool { return true })
		for _, n := range order {
			for _, eff := range n.Allocs {
				if reported.seen(eff.Pos, eff.Desc) {
					continue
				}
				if n.Noalloc {
					p.Reportf(n, eff.Pos, "%s in noalloc function %s", eff.Desc, n.Name())
					continue
				}
				p.Reportf(root, eff.Pos, "%s in %s, reachable from //grape:noalloc kernel %s via %s",
					eff.Desc, n.Name(), root.Name(), chainString(p.Fset, via, root, n))
			}
			for _, dyn := range n.Dynamics {
				if reported.seen(dyn.Pos, dyn.Reason) {
					continue
				}
				p.Reportf(root, dyn.Pos, "unresolvable call (%s) in %s, reachable from //grape:noalloc kernel %s via %s: the noalloc contract cannot be verified past this call",
					dyn.Reason, n.Name(), root.Name(), chainString(p.Fset, via, root, n))
			}
		}
	}
}

type effectKey struct {
	pos  token.Pos
	desc string
}

// effectSet dedupes findings across roots: a site two kernels reach is
// reported once.
type effectSet map[effectKey]bool

// seen reports whether the site was already reported, and marks it.
func (s effectSet) seen(pos token.Pos, desc string) bool {
	k := effectKey{pos, desc}
	if s[k] {
		return true
	}
	s[k] = true
	return false
}

// HotBlock is the ROADMAP's chanopt-style analyzer: a channel op costs
// ~40x an uncontended atomic, and a lock or wait can stall the whole
// pipeline, so none of them may be reachable from a //grape:noalloc
// kernel or a //grape:hotpath root (the board pool's force-pass
// dispatch). go-statement edges and ops inside `go func(){...}()`
// literals are not traversed: a spawned goroutine's blocking does not
// stall its spawner (the spawn itself is the noalloc analyzer's
// finding).
var HotBlock = &Analyzer{
	Name: "hotblock",
	Doc:  "forbid channel/lock/wait/sleep ops reachable from noalloc kernels and hot-path roots",
	Run:  runHotBlock,
}

func runHotBlock(p *Pass) {
	reported := effectSet{}
	for _, root := range p.Graph.Roots(func(n *Node) bool { return n.Noalloc || n.Hotpath }) {
		order, via := reachFrom(root, func(e Edge) bool {
			return e.Kind != EdgeGo && !e.InGo
		})
		rootKind := "//grape:hotpath root"
		if root.Noalloc {
			rootKind = "//grape:noalloc kernel"
		}
		for _, n := range order {
			for _, eff := range n.Blocking {
				if eff.InGo {
					continue
				}
				if reported.seen(eff.Pos, eff.Desc) {
					continue
				}
				if n == root {
					p.Reportf(root, eff.Pos, "%s on the hot path in %s (%s)",
						eff.Desc, n.Name(), rootKind)
					continue
				}
				p.Reportf(root, eff.Pos, "%s in %s, reachable from %s %s via %s",
					eff.Desc, n.Name(), rootKind, root.Name(), chainString(p.Fset, via, root, n))
			}
		}
	}
}

// PurityDeep enforces the bit-exact contract: math/rand (global seed
// state — use internal/xrand's explicit streams), time.Now, and
// float or accumulator updates inside `range` over a map (iteration
// order is randomized, and block-float accumulation is order-sensitive
// by design — that is what partition invariance is about) are findings
// in every function of a bit-exact package (gfixed/chip/board/gbackend)
// and in everything such a function reaches, wherever it lives. The
// packages' declarations outside function bodies (package-level var
// initializers, signatures) are walked too: they are not graph nodes.
var PurityDeep = &Analyzer{
	Name: "deterministic",
	Doc:  "forbid nondeterminism in the bit-exact packages and everything they reach",
	Run:  runPurityDeep,
}

func runPurityDeep(p *Pass) {
	reported := effectSet{}
	for _, root := range p.Graph.Roots(func(n *Node) bool { return isBitExactPath(n.Pkg.Path) }) {
		order, via := reachFrom(root, func(Edge) bool { return true })
		for _, n := range order {
			for _, eff := range n.Purity {
				if reported.seen(eff.Pos, eff.Desc) {
					continue
				}
				if isBitExactPath(n.Pkg.Path) {
					p.Reportf(n, eff.Pos, "%s in bit-exact package", eff.Desc)
					continue
				}
				p.Reportf(root, eff.Pos, "%s in %s, reachable from bit-exact package function %s via %s",
					eff.Desc, n.Name(), root.Name(), chainString(p.Fset, via, root, n))
			}
		}
	}
	emit := func(pos token.Pos, desc string) {
		p.Reportf(nil, pos, "%s in bit-exact package", desc)
	}
	for _, pkg := range p.Pkgs {
		if !isBitExactPath(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					forEachPurity(pkg.Info, fd.Type, emit) // the body is a graph node
					continue
				}
				forEachPurity(pkg.Info, decl, emit)
			}
		}
	}
}
