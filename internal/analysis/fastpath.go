package analysis

import (
	"go/ast"
	"path/filepath"
)

// fastpathForbidden maps each reservation/confirm entry point to the
// machinery it belongs to. The commutative fast path's whole claim is
// that these are unnecessary: its transactions cannot fail validation in
// any serialization, so a call to any of them from fast-path code means
// the classification in tryFastPath has been broken (or the fast path
// has quietly grown a round-trip and stopped being fast).
var fastpathForbidden = map[string]string{
	"Reserve":        "reservation table write",
	"Conflicts":      "NC reservation check",
	"checkAtPrimary": "RL/NC guess validation",
	"checkGuess":     "RL/NC guess validation",
	"propagate":      "guessed-path confirm exchange",
}

// Fastpath flags calls into the reservation/confirm machinery from
// commutative fast-path code — any function declared in a file named
// commute.go. Read-only inspection of the reservation table
// (Intersecting, used by guess demotion) is deliberately allowed: it
// never blocks, reserves, or round-trips.
//
// This enforces the invariant documented at the top of
// internal/engine/commute.go: the fast path stays fast, and honest, by
// construction. The check is syntactic on the callee name, scoped to
// commute.go files, so a false positive (an unrelated method that
// happens to be called Reserve) is possible but loud — suppress a
// documented one with //decaf:ignore fastpath.
func Fastpath() *Analyzer {
	a := &Analyzer{
		Name: "fastpath",
		Doc:  "flags reservation/confirm machinery calls from commutative fast-path code (commute.go)",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			pos := pass.Pkg.Fset.Position(f.Package)
			if filepath.Base(pos.Filename) != "commute.go" {
				continue
			}
			for _, fd := range funcDecls(f) {
				fd := fd
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					name := calleeName(call)
					why, bad := fastpathForbidden[name]
					if !bad {
						return true
					}
					pass.Reportf(call.Pos(),
						"fast-path %s calls %s (%s); commute.go must not touch the reservation/confirm machinery",
						fd.Name.Name, name, why)
					return true
				})
			}
		}
	}
	return a
}

// calleeName returns the bare name a call expression invokes: the method
// or function identifier, with any receiver/package qualifier stripped.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
