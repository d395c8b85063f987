package analysis

import (
	"go/ast"
	"go/token"
)

// formatFields are the gfixed.Format knobs that define the number
// formats. A shift by one of these outside gfixed is a hand-rolled
// fixed-point or mantissa conversion that belongs behind a Format or
// Rounder helper.
var formatFields = map[string]bool{
	"PosFrac":   true,
	"AccumFrac": true,
	"MantBits":  true,
}

// GfixedBoundary keeps every bit-level number-format decision inside
// internal/gfixed: outside it, raw math.Float64bits/Float64frombits
// and manual shifts by Format fields are forbidden — use
// gfixed.FloatBits/FloatFromBits and the Format/Rounder helpers.
var GfixedBoundary = &Analyzer{
	Name: "gfixedboundary",
	Doc:  "forbid raw float<->bits conversions outside internal/gfixed",
	Run:  runGfixedBoundary,
}

func runGfixedBoundary(p *Pass) {
	for _, pkg := range p.Pkgs {
		if pathHasSuffix(pkg.Path, "internal/gfixed") {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if isPkgIdent(pkg.Info, n.X, "math") &&
						(n.Sel.Name == "Float64bits" || n.Sel.Name == "Float64frombits") {
						p.Reportf(nil, n.Pos(), "math.%s outside internal/gfixed: use gfixed.FloatBits/FloatFromBits so number-format decisions stay in one place", n.Sel.Name)
					}
				case *ast.BinaryExpr:
					if n.Op == token.SHL || n.Op == token.SHR {
						if field := formatFieldRef(n.Y); field != "" {
							p.Reportf(nil, n.Pos(), "manual shift by %s outside internal/gfixed: use the Format/Rounder helpers (PosResolution, Round, ...)", field)
						}
					}
				}
				return true
			})
		}
	}
}

// formatFieldRef returns the name of a Format field referenced inside a
// shift-count expression, or "".
func formatFieldRef(e ast.Expr) string {
	var found string
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && formatFields[sel.Sel.Name] {
			found = sel.Sel.Name
		}
		return true
	})
	return found
}
