package wire

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"testing"

	"decaf/internal/analysis"
)

// TestEveryWireFieldHasAReader requires every field of every Message type,
// the in-memory baseline messages included, to be read by some non-test
// file outside this package. The codec reads every field to encode it, so
// only a reader elsewhere shows that a receiver acts on the field; a field
// no one reads is a cost on every message and a second, unchecked source
// of truth (a sender named in the body as well as by the transport).
// Setting a field, in a keyed composite literal or on the left of an
// assignment, does not count as reading it.
func TestEveryWireFieldHasAReader(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll(loader.ModRoot)
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	wirePath := loader.ModPath + "/internal/wire"
	i := slices.IndexFunc(pkgs, func(p *analysis.Package) bool { return p.ImportPath == wirePath })
	if i < 0 {
		t.Fatalf("%s not loaded", wirePath)
	}
	wirePkg := pkgs[i]

	// The fields of every struct type that implements Message.
	scope := wirePkg.Types.Scope()
	message := scope.Lookup("Message").Type().Underlying().(*types.Interface)
	unread := map[*types.Var]string{}
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !types.Implements(tn.Type(), message) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for j := 0; j < st.NumFields(); j++ {
			unread[st.Field(j)] = name + "." + st.Field(j).Name()
		}
	}
	if len(unread) == 0 {
		t.Fatal("found no Message fields")
	}

	for _, pkg := range pkgs {
		if pkg == wirePkg {
			continue
		}
		for _, f := range pkg.Files {
			// An assignment's left side is visited after the statement
			// itself, so its selectors are known to be writes by then.
			written := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
						for _, lhs := range n.Lhs {
							written[lhs] = true
						}
					}
				case *ast.SelectorExpr:
					if sel, ok := pkg.Info.Selections[n]; ok && sel.Kind() == types.FieldVal && !written[n] {
						delete(unread, sel.Obj().(*types.Var))
					}
				}
				return true
			})
		}
	}

	var names []string
	for _, name := range unread {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Errorf("%s is written but never read outside internal/wire", name)
	}
}
