package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"strings"
)

// The interprocedural analyzers: each picks a set of root nodes from
// the call graph, walks the transitive closure of calls (breadth-first,
// so reported chains are shortest), and reports the reachable effect
// sites its contract forbids. Chains are printed hop by hop with the
// call site of every hop, so a finding is actionable without re-running
// the analysis by hand.

// A ModulePass carries one (analyzer, whole module) run.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *CallGraph
	Fset     *token.FileSet
	findings *[]Finding
}

// Reportf records a finding at pos; root is the chain's root function
// (its position is attached so package-scoped runs can match either
// end of a cross-package chain).
func (mp *ModulePass) Reportf(root *Node, pos token.Pos, format string, args ...any) {
	*mp.findings = append(*mp.findings, Finding{
		Pos:      mp.Fset.Position(pos),
		Root:     mp.Fset.Position(root.Obj.Pos()),
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

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

// NoAllocDeep extends the noalloc contract transitively: an allocation
// site inside an unannotated function is a finding when any
// //grape:noalloc kernel can reach it through the call graph. Sites in
// annotated functions are the intraprocedural noalloc analyzer's job
// and are not re-reported. Calls the graph cannot resolve (function
// values with several bindings, func-typed fields) are findings too:
// the contract cannot be verified past them.
var NoAllocDeep = &Analyzer{
	Name:      "noallocdeep",
	Doc:       "forbid allocations reachable from //grape:noalloc kernels through unannotated callees",
	RunModule: runNoAllocDeep,
}

func runNoAllocDeep(mp *ModulePass) {
	reported := map[effectKey]bool{}
	for _, root := range mp.Graph.Roots(func(n *Node) bool { return n.Noalloc }) {
		order, via := reachFrom(root, func(Edge) bool { return true })
		for _, n := range order {
			if !n.Noalloc {
				for _, eff := range n.Allocs {
					k := effectKey{eff.Pos, eff.Desc}
					if reported[k] {
						continue
					}
					reported[k] = true
					mp.Reportf(root, eff.Pos, "%s in %s, reachable from //grape:noalloc kernel %s via %s",
						eff.Desc, n.Name(), root.Name(), chainString(mp.Fset, via, root, n))
				}
			}
			for _, dyn := range n.Dynamics {
				k := effectKey{dyn.Pos, dyn.Reason}
				if reported[k] {
					continue
				}
				reported[k] = true
				mp.Reportf(root, dyn.Pos, "unresolvable call (%s) in %s, reachable from //grape:noalloc kernel %s via %s: the noalloc contract cannot be verified past this call",
					dyn.Reason, n.Name(), root.Name(), chainString(mp.Fset, via, root, n))
			}
		}
	}
}

type effectKey struct {
	pos  token.Pos
	desc string
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
	Name:      "hotblock",
	Doc:       "forbid channel/lock/wait/sleep ops reachable from noalloc kernels and hot-path roots",
	RunModule: runHotBlock,
}

func runHotBlock(mp *ModulePass) {
	reported := map[effectKey]bool{}
	for _, root := range mp.Graph.Roots(func(n *Node) bool { return n.Noalloc || n.Hotpath }) {
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
				k := effectKey{eff.Pos, eff.Desc}
				if reported[k] {
					continue
				}
				reported[k] = true
				if n == root {
					mp.Reportf(root, eff.Pos, "%s on the hot path in %s (%s)",
						eff.Desc, n.Name(), rootKind)
					continue
				}
				mp.Reportf(root, eff.Pos, "%s in %s, reachable from %s %s via %s",
					eff.Desc, n.Name(), rootKind, root.Name(), chainString(mp.Fset, via, root, n))
			}
		}
	}
}

// PurityDeep extends the deterministic contract across package
// boundaries: math/rand, time.Now, and order-sensitive map-range
// accumulation are findings in any function a bit-exact package
// (gfixed/chip/board/gbackend) can reach, wherever that function
// lives. Sites inside the bit-exact packages themselves are the
// intraprocedural deterministic analyzer's job.
var PurityDeep = &Analyzer{
	Name:      "puritydeep",
	Doc:       "forbid nondeterminism reachable from the bit-exact packages",
	RunModule: runPurityDeep,
}

func runPurityDeep(mp *ModulePass) {
	reported := map[effectKey]bool{}
	for _, root := range mp.Graph.Roots(func(n *Node) bool { return isBitExactPath(n.Pkg.Path) }) {
		order, via := reachFrom(root, func(Edge) bool { return true })
		for _, n := range order {
			if isBitExactPath(n.Pkg.Path) {
				continue // intraprocedural deterministic covers these
			}
			for _, eff := range n.Purity {
				k := effectKey{eff.Pos, eff.Desc}
				if reported[k] {
					continue
				}
				reported[k] = true
				mp.Reportf(root, eff.Pos, "%s in %s, reachable from bit-exact package function %s via %s",
					eff.Desc, n.Name(), root.Name(), chainString(mp.Fset, via, root, n))
			}
		}
	}
}
