package analysis

import (
	"go/ast"
	"go/types"
	"os"
	"strings"
	"testing"
)

// edgeTo returns the edges of node `from` that land on node name `to`.
func edgesTo(g *CallGraph, from, to string) []Edge {
	n := g.Lookup(from)
	if n == nil {
		return nil
	}
	var out []Edge
	for _, e := range n.Edges {
		if e.To.Name() == to {
			out = append(out, e)
		}
	}
	return out
}

func TestCallGraphEdgeKinds(t *testing.T) {
	pkg := loadFixture(t, "callgraph", "fixture/callgraph")
	g := BuildCallGraph([]*Package{pkg})

	assertKind := func(from, to string, kind EdgeKind) {
		t.Helper()
		es := edgesTo(g, from, to)
		if len(es) == 0 {
			t.Errorf("no edge %s -> %s", from, to)
			return
		}
		found := false
		for _, e := range es {
			if e.Kind == kind {
				found = true
				if kind == EdgeInterface && e.Reason == "" {
					t.Errorf("%s -> %s: interface edge without a reason", from, to)
				}
			}
		}
		if !found {
			t.Errorf("edge %s -> %s: kinds %v, want %v", from, to, es, kind)
		}
	}

	assertKind("callgraph.static", "callgraph.leaf", EdgeStatic)
	assertKind("callgraph.method", "callgraph.(*T).M", EdgeMethod)
	assertKind("callgraph.iface", "callgraph.(*T).M", EdgeInterface)
	assertKind("callgraph.funcval", "callgraph.leaf", EdgeFuncValue)
	assertKind("callgraph.methodval", "callgraph.(*T).M", EdgeFuncValue)
	assertKind("callgraph.spawn", "callgraph.leaf", EdgeGo)
	assertKind("callgraph.deferred", "callgraph.leaf", EdgeDefer)
	assertKind("callgraph.reffer", "callgraph.leaf", EdgeRef)

	// A called func literal is attributed to its encloser: no edges, no
	// dynamic sites, and the literal's allocation counts as closure()'s.
	cl := g.Lookup("callgraph.closure")
	if cl == nil {
		t.Fatal("closure node missing")
	}
	if len(cl.Edges) != 0 || len(cl.Dynamics) != 0 {
		t.Errorf("closure: %d edges, %d dynamics; want 0, 0", len(cl.Edges), len(cl.Dynamics))
	}
	foundAlloc := false
	for _, eff := range cl.Allocs {
		if strings.Contains(eff.Desc, "make allocates") {
			foundAlloc = true
		}
	}
	if !foundAlloc {
		t.Errorf("closure: literal's make not attributed to encloser (allocs: %v)", cl.Allocs)
	}

	// An indexed func value cannot resolve: a dynamic site with a reason.
	dyn := g.Lookup("callgraph.dyn")
	if dyn == nil || len(dyn.Dynamics) != 1 ||
		!strings.Contains(dyn.Dynamics[0].Reason, "indexed func value") {
		t.Errorf("dyn: dynamics %+v, want one indexed-func-value site", dyn.Dynamics)
	}

	// A parameter func value has zero local bindings: dynamic.
	ref := g.Lookup("callgraph.reffer")
	if ref == nil || len(ref.Dynamics) != 1 ||
		!strings.Contains(ref.Dynamics[0].Reason, "0 local bindings") {
		t.Errorf("reffer: dynamics %+v, want one unbound-func-value site", ref.Dynamics)
	}
}

// TestModuleGraphInvariants builds the graph over the real module and
// asserts that every //grape:noalloc function in the tree appears as a
// graph root with Noalloc set: the noalloc and hotblock closures start
// from these roots, so a kernel missing here would go unchecked.
func TestModuleGraphInvariants(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph(pkgs)
	if len(g.All()) == 0 {
		t.Fatal("empty module graph")
	}

	roots := g.Roots(func(n *Node) bool { return n.Noalloc })
	isRoot := make(map[*Node]bool, len(roots))
	for _, n := range roots {
		isRoot[n] = true
	}
	annotated := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(fd.Doc, noallocDirective) {
					continue
				}
				annotated++
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				n := g.Nodes[fn]
				if n == nil || !isRoot[n] {
					t.Errorf("noalloc kernel %s.%s is not a graph root", pkg.Path, fd.Name.Name)
				}
			}
		}
	}
	if annotated == 0 {
		t.Fatal("no //grape:noalloc kernels found in the module")
	}
	if annotated != len(roots) {
		t.Errorf("%d annotated kernels, %d noalloc roots", annotated, len(roots))
	}
}

func TestHotBlockFixture(t *testing.T) {
	checkFixture(t, "hotblock", "fixture/hotblock")
}

func TestDeterministicCrossPackage(t *testing.T) {
	impure := loadFixture(t, "crosspkg/impure", "fixture/impure")
	chiplike := loadFixture(t, "crosspkg", "grape6/internal/chip", impure)

	findings := Run([]*Package{chiplike, impure}, All())
	var purity []Finding
	for _, f := range findings {
		if f.Analyzer == "deterministic" {
			purity = append(purity, f)
		} else {
			t.Errorf("unexpected %s finding: %s", f.Analyzer, f)
		}
	}
	wantSubstrings := []string{
		"math/rand.Float64 (global seed state) in impure.Jitter, reachable from bit-exact package function chip.Predict via chip.Predict -> impure.Jitter",
		"time.Now (wall-clock dependence) in impure.Jitter, reachable from bit-exact package function chip.Predict",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, f := range purity {
			if strings.Contains(f.Message, want) {
				found = true
				// Root must point at the bit-exact fixture file so
				// package-filtered CLI runs can match the chain's root.
				if !strings.Contains(f.Root.Filename, "chiplike.go") {
					t.Errorf("finding root %q, want chiplike.go", f.Root.Filename)
				}
			}
		}
		if !found {
			t.Errorf("no deterministic finding containing %q; got %v", want, purity)
		}
	}
	if len(purity) != 2 {
		t.Errorf("got %d deterministic findings, want 2: %v", len(purity), purity)
	}
}
