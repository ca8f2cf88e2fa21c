package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockedSend flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: channel sends and receives, selects without a
// default case, and calls known to block (socket reads/writes, dials,
// gob encoding onto a connection, time.Sleep, WaitGroup.Wait, ...).
//
// This is the PR-2 transport bug class: a send on an unbuffered channel
// or a socket write under a peer mutex stalls every other goroutine
// needing that mutex for as long as the peer is slow, and can deadlock
// outright when the unblocking party needs the same lock. The check is
// intraprocedural and syntax-ordered (best effort across branches);
// deliberate blocking-under-lock is suppressed with
// //decaf:ignore lockedsend.
func LockedSend() *Analyzer {
	a := &Analyzer{
		Name: "lockedsend",
		Doc:  "flags blocking operations (channel ops, socket I/O, dials, sleeps) while a mutex is held",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			for _, fd := range funcDecls(f) {
				w := &lockWalker{pass: pass, held: map[string]token.Pos{}}
				w.walk(fd.Body)
			}
		}
	}
	return a
}

// lockWalker tracks the set of held mutexes through one function body in
// source order. Mutexes are keyed by the printed form of the receiver
// expression ("p.mu"), which distinguishes locks on different objects
// even when the field names collide.
type lockWalker struct {
	pass *Pass
	held map[string]token.Pos
}

func (w *lockWalker) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// A spawned goroutine does not hold the spawner's locks.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				w.detached(lit.Body)
			}
			return false
		case *ast.DeferStmt:
			// Deferred unlocks keep the mutex held for the rest of the
			// function; deferred bodies run at return, outside this
			// walk's source order. Neither changes the held set.
			return false
		case *ast.FuncLit:
			// Closures are usually invoked later, without the locks.
			w.detached(n.Body)
			return false
		case *ast.SelectStmt:
			w.selectStmt(n)
			return false
		case *ast.SendStmt:
			if len(w.held) > 0 {
				w.pass.Reportf(n.Arrow, "channel send while %s is held", w.heldNames())
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(w.held) > 0 {
				w.pass.Reportf(n.OpPos, "channel receive while %s is held", w.heldNames())
			}
			return true
		case *ast.CallExpr:
			if w.mutexOp(n) {
				return true
			}
			if len(w.held) > 0 {
				if desc := blockingCall(w.pass.Pkg.Info, n); desc != "" {
					w.pass.Reportf(n.Pos(), "potentially blocking call to %s while %s is held", desc, w.heldNames())
				}
			}
			return true
		}
		return true
	})
}

// detached walks a nested function body with a fresh held set.
func (w *lockWalker) detached(body ast.Node) {
	inner := &lockWalker{pass: w.pass, held: map[string]token.Pos{}}
	inner.walk(body)
}

// selectStmt handles a select: with a default case every comm clause is
// non-blocking, so only the clause bodies are inspected; without one the
// select itself blocks.
func (w *lockWalker) selectStmt(sel *ast.SelectStmt) {
	hasDefault := false
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault && len(w.held) > 0 {
		w.pass.Reportf(sel.Select, "blocking select (no default case) while %s is held", w.heldNames())
	}
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		for _, s := range cc.Body {
			w.walk(s)
		}
	}
}

// mutexOp updates the held set for mu.Lock/RLock/Unlock/RUnlock calls
// and reports whether the call was one.
func (w *lockWalker) mutexOp(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return false
	}
	if !isMutexType(w.pass.Pkg.Info.Types[sel.X].Type) {
		return false
	}
	key := types.ExprString(sel.X)
	switch name {
	case "Lock", "RLock":
		w.held[key] = call.Pos()
	case "Unlock", "RUnlock":
		delete(w.held, key)
	}
	return true
}

func (w *lockWalker) heldNames() string {
	names := make([]string, 0, len(w.held))
	for k := range w.held {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// blockingPkgFuncs are package-level functions known to block.
var blockingPkgFuncs = map[[2]string]bool{
	{"time", "Sleep"}:       true,
	{"net", "Dial"}:         true,
	{"net", "DialTimeout"}:  true,
	{"net", "DialTCP"}:      true,
	{"net", "DialUDP"}:      true,
	{"net", "Listen"}:       true,
	{"net", "ListenTCP"}:    true,
	{"net", "ListenPacket"}: true,
	{"io", "ReadFull"}:      true,
	{"io", "Copy"}:          true,
	{"io", "ReadAll"}:       true,
}

// blockingMethods maps (package path, method name) to the blocking
// verdict; "" as type name means any type from the package.
var blockingMethods = map[[2]string][]string{
	{"net", ""}:                   {"Read", "Write", "Accept", "ReadFrom", "WriteTo"},
	{"bufio", ""}:                 {"Read", "Write", "Flush", "ReadByte", "ReadString", "WriteString"},
	{"encoding/gob", "Encoder"}:   {"Encode"},
	{"encoding/gob", "Decoder"}:   {"Decode"},
	{"sync", "WaitGroup"}:         {"Wait"},
	{"sync", "Cond"}:              {"Wait"},
	{"os", "File"}:                {"Read", "Write", "Sync"},
	{"net/http", ""}:              {"Do", "Get", "Post"},
	{"golang.org/x/net/ipv4", ""}: {"ReadFrom", "WriteTo"},
}

// blockingCall reports a short description ("net.Conn.Write") when the
// call is known to block, else "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	if pkg, name := pkgFunc(info, call); pkg != "" {
		if blockingPkgFuncs[[2]string{pkg, name}] {
			return pkg + "." + name
		}
		return ""
	}
	pkg, typeName, method := methodCall(info, call)
	if pkg == "" || method == "" {
		return ""
	}
	for _, key := range [][2]string{{pkg, typeName}, {pkg, ""}} {
		for _, m := range blockingMethods[key] {
			if m == method {
				return pkg + "." + typeName + "." + method
			}
		}
	}
	return ""
}
