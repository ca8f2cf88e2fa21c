package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DefaultDeterministic lists the packages (by import-path suffix) whose
// behavior must be a pure function of protocol events: the virtual-time
// machinery, everything whose state is ordered by it, and the
// simulation harness whose runs must replay bit-for-bit from (profile,
// seed). Reading the wall clock in these packages would make
// transaction ordering, history pruning, GVT sweeps, or simulated
// schedules depend on real time, which breaks replay determinism and
// the paper's correctness argument.
var DefaultDeterministic = []string{
	"internal/engine",
	"internal/consensus",
	"internal/history",
	"internal/gvt",
	"internal/vtime",
	"internal/sim",
}

// DefaultSanctioned lists packages (by import-path suffix) that are
// deliberate wall-clock/timer wrappers: calls INTO them from
// deterministic code are fine and taint does not propagate through
// them. internal/obs qualifies because the deterministic packages
// obtain wall stamps exclusively through obs.Observer.NowNanos /
// ObserveSince, which return 0 / record nothing when timing is off, so
// wall time feeds latency metrics only and never protocol state.
var DefaultSanctioned = []string{
	"internal/obs",
}

// wallclockBanned are the time-package functions that read the wall
// clock. Timer construction (time.After, time.NewTimer) is deliberately
// not banned here: delaying an action is scheduling, not state; the
// schedule itself is the timers analyzer's concern.
var wallclockBanned = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// Wallclock forbids wall-clock reads (time.Now, time.Since, time.Until)
// in the named deterministic packages — both direct calls and calls to
// module helpers that transitively reach one (resolved over the static
// call graph; interface dispatch and function values are not followed).
// Matching is by import-path suffix. A justified exception is
// allowlisted in place with //decaf:ignore wallclock <reason>.
func Wallclock(protected ...string) *Analyzer {
	return WallclockSanctioned(DefaultSanctioned, protected...)
}

// WallclockSanctioned is Wallclock with an explicit sanctioned-wrapper
// package list (see DefaultSanctioned); tests use it to exercise the
// barrier behavior on fixture packages.
func WallclockSanctioned(sanctioned []string, protected ...string) *Analyzer {
	a := &Analyzer{
		Name: "wallclock",
		Doc:  "forbids time.Now/Since/Until in deterministic packages (engine, history, gvt, vtime, sim), including indirectly through module helpers (call-graph reachability)",
	}
	a.Run = func(pass *Pass) {
		runReachAnalyzer(pass, reachConfig{
			protected:  protected,
			sanctioned: sanctioned,
			banned:     wallclockBanned,
			directFmt:  "wall-clock read time.%s in deterministic package %s; derive state from virtual time or move the timing concern to the caller",
			reachWord:  "a wall-clock read",
		})
	}
	return a
}

// reachConfig parameterizes the shared direct+interprocedural scan used
// by the wallclock and timers analyzers.
type reachConfig struct {
	protected  []string
	sanctioned []string
	// banned names the time-package entry points being policed.
	banned map[string]bool
	// directFmt formats a direct-use diagnostic (verb name, package name).
	directFmt string
	// reachWord names the hazard class in indirect diagnostics.
	reachWord string
}

// runReachAnalyzer reports direct uses of banned time functions in a
// protected package, plus call sites whose (module-declared,
// unprotected, unsanctioned) callee transitively reaches one.
func runReachAnalyzer(pass *Pass, cfg reachConfig) {
	if !pathProtected(pass.Pkg.ImportPath, cfg.protected) {
		return
	}
	info := pass.Pkg.Info

	// Direct uses: any mention of the banned functions, including taking
	// their value (f := time.Now).
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || !bannedTimeFunc(fn, cfg.banned) {
				return true
			}
			pass.Reportf(sel.Pos(), cfg.directFmt, fn.Name(), pass.Pkg.Types.Name())
			return true
		})
	}

	// Indirect uses, over the call graph.
	g := pass.Graph
	if g == nil {
		return
	}
	target := func(fn *types.Func) bool {
		return bannedTimeFunc(fn, cfg.banned)
	}
	blocked := func(fn *types.Func) bool {
		return fn.Pkg() != nil && pathProtected(fn.Pkg().Path(), cfg.sanctioned)
	}
	r := g.newReacher(target, blocked)
	for _, f := range pass.Pkg.Files {
		for _, fd := range funcDecls(f) {
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sites := append(append([]CallSite{}, g.Calls[fn]...), g.Spawns[fn]...)
			for _, site := range sites {
				callee := site.Callee
				if target(callee) {
					continue // the direct scan already reported it
				}
				if g.DeclPkg[callee] == nil {
					continue // no body in the module: nothing to reach
				}
				calleePkg := callee.Pkg().Path()
				if pathProtected(calleePkg, cfg.protected) {
					continue // flagged inside its own package instead
				}
				if pathProtected(calleePkg, cfg.sanctioned) {
					continue
				}
				if !r.reaches(callee) {
					continue
				}
				chain := append([]*types.Func{callee}, r.path(callee)...)
				pass.Reportf(site.Pos,
					"call to %s reaches %s from deterministic package %s (%s); hoist the time dependency out or inject it",
					funcLabel(callee), cfg.reachWord, pass.Pkg.Types.Name(), chainLabel(chain))
			}
		}
	}
}

// bannedTimeFunc reports whether fn is one of the policed package-level
// time functions. The receiver check matters: time.Time has methods
// named After/Since-alikes (t.After(u) is a comparison, not a timer)
// that must not trip the analyzers.
func bannedTimeFunc(fn *types.Func, banned map[string]bool) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

func pathProtected(importPath string, protected []string) bool {
	for _, p := range protected {
		if importPath == p || strings.HasSuffix(importPath, "/"+strings.TrimPrefix(p, "/")) || strings.HasSuffix(importPath, p) {
			return true
		}
	}
	return false
}
