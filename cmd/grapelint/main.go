// Command grapelint runs the repo's static-analysis suite: three
// package-scoped checks (nodeprecated, gfixedboundary, goroutinejoin)
// and three closures over the module call graph (noalloc, hotblock,
// deterministic), each of which checks its roots' own bodies and
// everything they reach — see DESIGN.md §7 "Static guarantees". It
// type-checks the whole module with the standard library only; the
// analyzers always see every package (a chain through an unlisted
// package must not go dark), and the given patterns select which
// findings to report:
//
//	grapelint ./...                  # everything (the verify.sh tier-3 call)
//	grapelint ./internal/chip        # one package
//	grapelint grape6/internal/...    # import-path prefix
//	grapelint -json ./...            # machine-readable findings on stdout
//
// A finding is reported when its site or its chain's root function lies
// in a selected package, so `grapelint ./internal/board` still shows a
// board kernel reaching an allocation in another package.
//
// Exit status: 0 clean, 1 findings, 2 load/usage error (including a
// pattern that matches no package).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"grape6/internal/analysis"
)

// jsonFinding is the -json wire form of one finding. Root fields are
// present only on call-graph findings.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	RootFile string `json:"rootFile,omitempty"`
	RootLine int    `json:"rootLine,omitempty"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: grapelint [-list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, az := range analysis.All() {
			fmt.Printf("%-16s %s\n", az.Name, az.Doc)
		}
		return
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

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selDirs := make(map[string]bool)
	for _, pat := range patterns {
		hit := false
		for _, p := range pkgs {
			if matches(p, pat, cwd) {
				selDirs[p.Dir] = true
				hit = true
			}
		}
		if !hit {
			fatal(fmt.Errorf("no packages match %q", pat))
		}
	}

	// The analyzers always run over the whole module — the call graph and
	// the cross-package indexes are only sound with every package present.
	// The selection filters what gets reported, by finding site or chain
	// root.
	all := analysis.Run(pkgs, analysis.All())
	var findings []analysis.Finding
	for _, f := range all {
		if selDirs[filepath.Dir(f.Pos.Filename)] ||
			(f.Root.Filename != "" && selDirs[filepath.Dir(f.Root.Filename)]) {
			findings = append(findings, f)
		}
	}

	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			jf := jsonFinding{
				File:     relTo(cwd, f.Pos.Filename),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			}
			if f.Root.Filename != "" {
				jf.RootFile = relTo(cwd, f.Root.Filename)
				jf.RootLine = f.Root.Line
			}
			out = append(out, jf)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			pos := f.Pos
			pos.Filename = relTo(cwd, pos.Filename)
			fmt.Printf("%s: %s: %s\n", pos, f.Analyzer, f.Message)
		}
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

// matches implements the two pattern families: filesystem-relative
// ("./x", "./x/...", "./...") against the package directory, and
// import-path ("grape6/internal/chip", "grape6/...") against the path.
func matches(p *analysis.Package, pat, cwd string) bool {
	if pat == "." || strings.HasPrefix(pat, "./") {
		rest := strings.TrimPrefix(strings.TrimPrefix(pat, "."), "/")
		recursive := false
		if rest == "..." {
			recursive, rest = true, ""
		} else if strings.HasSuffix(rest, "/...") {
			recursive, rest = true, strings.TrimSuffix(rest, "/...")
		}
		dir := cwd
		if rest != "" {
			dir = filepath.Join(cwd, filepath.FromSlash(rest))
		}
		if recursive {
			return p.Dir == dir || strings.HasPrefix(p.Dir, dir+string(filepath.Separator))
		}
		return p.Dir == dir
	}
	if strings.HasSuffix(pat, "/...") {
		prefix := strings.TrimSuffix(pat, "/...")
		return p.Path == prefix || strings.HasPrefix(p.Path, prefix+"/")
	}
	return p.Path == pat
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "grapelint: %v\n", err)
	os.Exit(2)
}
