// Command grapelint runs the repo's static-analysis suite over the
// module that contains the working directory: one package-scoped check
// (gfixedboundary) and three closures over the module call graph
// (noalloc, hotblock, deterministic), each of which checks its roots'
// own bodies and everything they reach — see DESIGN.md §7 "Static
// guarantees". It type-checks the whole module with the standard library
// only and takes no flags or arguments:
//
//	go run ./cmd/grapelint
//
// Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"grape6/internal/analysis"
)

func main() {
	if len(os.Args) > 1 {
		fatal(fmt.Errorf("usage: grapelint (no flags or arguments)"))
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	findings := analysis.Run(pkgs, analysis.All())
	for _, f := range findings {
		f.Pos.Filename = relTo(cwd, f.Pos.Filename)
		fmt.Println(f)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "grapelint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// relTo returns path relative to base when it lies underneath it,
// unchanged otherwise.
func relTo(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "grapelint: %v\n", err)
	os.Exit(2)
}
