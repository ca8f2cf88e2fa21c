package analysis

import (
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// update rewrites the fixture golden files instead of comparing against
// them: go test ./internal/analysis -run TestFixtures -update
var update = flag.Bool("update", false, "rewrite expect.txt golden files")

// The loader is shared across tests: it caches type-checked std packages,
// so the second and later fixtures load in milliseconds.
var (
	loaderOnce sync.Once
	sharedLd   *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { sharedLd, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedLd
}

// loadFixture loads testdata/src/<name> (plus any sub-packages, which
// are registered under synthetic import paths so the parent's imports
// resolve) and returns the loaded packages, parent first.
func loadFixture(t *testing.T, name string, subpkgs ...string) []*Package {
	t.Helper()
	loader := fixtureLoader(t)
	dir := filepath.Join("testdata", "src", name)
	for _, sub := range subpkgs {
		loader.RegisterSynthetic("fixture/"+name+"/"+sub, filepath.Join(dir, sub))
	}
	pkgs := make([]*Package, 0, 1+len(subpkgs))
	pkg, err := loader.LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	pkgs = append(pkgs, pkg)
	for _, sub := range subpkgs {
		sp, err := loader.LoadDir(filepath.Join(dir, sub), "fixture/"+name+"/"+sub)
		if err != nil {
			t.Fatalf("load fixture %s/%s: %v", name, sub, err)
		}
		pkgs = append(pkgs, sp)
	}
	return pkgs
}

// TestFixtures runs each analyzer against its fixture package under
// testdata/src and compares the rendered diagnostics against the
// package's expect.txt. Every fixture also contains a function named
// "suppressed" carrying a //decaf:ignore directive; the goldens prove
// suppression works because no diagnostic appears on those lines.
func TestFixtures(t *testing.T) {
	cases := []struct {
		name      string
		analyzers []*Analyzer
		subpkgs   []string
	}{
		{"lockedsend", []*Analyzer{LockedSend()}, nil},
		{"guardedby", []*Analyzer{GuardedBy()}, nil},
		{"rawvt", []*Analyzer{RawVT()}, nil},
		// The production suite protects internal/{engine,history,gvt,
		// vtime,sim}; here the fixture's synthetic import path is
		// protected instead.
		{"wallclock", []*Analyzer{Wallclock("fixture/wallclock")}, nil},
		{"timers", []*Analyzer{Timers("fixture/timers")}, nil},
		{"atomicmix", []*Analyzer{AtomicMix()}, nil},
		{"fastpath", []*Analyzer{Fastpath()}, nil},
		{"maporder", []*Analyzer{Maporder("fixture/maporder")}, nil},
		{"lockorder", []*Analyzer{Lockorder()}, nil},
		// The interprocedural fixture: hazards live one package away in
		// clockutil; obswrap is the sanctioned taint barrier.
		{"callgraph", []*Analyzer{
			WallclockSanctioned([]string{"fixture/callgraph/obswrap"}, "fixture/callgraph"),
			TimersSanctioned([]string{"fixture/callgraph/obswrap"}, "fixture/callgraph"),
		}, []string{"clockutil", "obswrap"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.name)
			abs, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			pkgs := loadFixture(t, tc.name, tc.subpkgs...)
			var got []string
			for _, d := range Run(tc.analyzers, pkgs) {
				got = append(got, d.Render(abs))
			}
			golden := filepath.Join(dir, "expect.txt")
			if *update {
				content := strings.Join(got, "\n")
				if content != "" {
					content += "\n"
				}
				if err := os.WriteFile(golden, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			want := splitLines(string(data))
			if len(got) != len(want) {
				t.Errorf("got %d diagnostics, want %d", len(got), len(want))
			}
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Errorf("diagnostic %d:\n  got  %q\n  want %q", i, g, w)
				}
			}
		})
	}
}

func splitLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}

// TestWallclockUnprotectedPackage checks that the wallclock analyzer
// stays quiet outside its protected set: time.Now is legal in, say, the
// transport, and the fixture must not be flagged when the protected list
// names some other package.
func TestWallclockUnprotectedPackage(t *testing.T) {
	pkgs := loadFixture(t, "wallclock")
	diags := Run([]*Analyzer{Wallclock("internal/engine")}, pkgs)
	if len(diags) != 0 {
		t.Fatalf("wallclock flagged an unprotected package: %v", diags)
	}
}

// TestInterproceduralDelta pins the reason the call graph exists. The
// pre-v2 wallclock/timers analyzers scanned one package at a time, so a
// hazard hidden behind a helper in another package was invisible —
// exactly the situation modeled by the callgraph fixture, where every
// time dependency sits in the clockutil sub-package. Running the same
// analyzer over the same fixture with and without the helper package in
// the analysis set shows the delta: the package-local view (old
// behavior) reports nothing, the module view reports every indirect
// call site.
func TestInterproceduralDelta(t *testing.T) {
	pkgs := loadFixture(t, "callgraph", "clockutil", "obswrap")
	parent := pkgs[:1]
	mk := func() []*Analyzer {
		return []*Analyzer{
			WallclockSanctioned([]string{"fixture/callgraph/obswrap"}, "fixture/callgraph"),
			TimersSanctioned([]string{"fixture/callgraph/obswrap"}, "fixture/callgraph"),
		}
	}
	if got := Run(mk(), parent); len(got) != 0 {
		t.Fatalf("package-local analysis (the pre-v2 view) should be blind here, got:\n%v", got)
	}
	got := Run(mk(), pkgs)
	if len(got) == 0 {
		t.Fatal("interprocedural analysis caught nothing; the call graph is not being consulted")
	}
	for _, d := range got {
		if !strings.Contains(d.Message, "reaches") {
			t.Errorf("expected only indirect (reachability) findings, got: %s", d)
		}
	}
}

// TestBareIgnoreWarning checks that a //decaf:ignore directive without a
// reason still suppresses its diagnostic but is surfaced as a warning.
func TestBareIgnoreWarning(t *testing.T) {
	pkgs := loadFixture(t, "maporder")
	res := RunSuite([]*Analyzer{Maporder("fixture/maporder")}, pkgs)
	if len(res.BareIgnores) != 1 {
		t.Fatalf("got %d bare-ignore warnings, want 1: %+v", len(res.BareIgnores), res.BareIgnores)
	}
	if b := res.BareIgnores[0]; b.Analyzer != "maporder" {
		t.Fatalf("bare ignore attributed to %q, want maporder", b.Analyzer)
	}
	// The reasoned directive in the same fixture must NOT be counted.
	for _, d := range res.Diags {
		if strings.Contains(d.Pos.Filename, "suppressed") {
			t.Errorf("suppressed finding leaked: %s", d)
		}
	}
}

// TestFastpathTableNamesLiveFunctions keeps the fastpath table honest:
// every name it forbids must be a function the engine or the history
// package declares, so deleting or renaming a validation entry point
// cannot leave the table guarding a name nothing calls.
func TestFastpathTableNamesLiveFunctions(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range []string{"../engine", "../history"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, fd := range funcDecls(f) {
				declared[fd.Name.Name] = true
			}
		}
	}
	for name := range fastpathForbidden {
		if !declared[name] {
			t.Errorf("fastpathForbidden names %s, which internal/engine and internal/history do not declare", name)
		}
	}
}

// TestVetSelfClean runs the full production suite over the entire module
// and requires zero findings AND zero bare ignores — the same gate CI
// applies via decaf-vet. Any intentional exception in the tree must
// carry a //decaf:ignore directive with a reason.
func TestVetSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	loader := fixtureLoader(t)
	pkgs, err := loader.LoadAll(loader.ModRoot)
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	res := RunSuite(DefaultAnalyzers(), pkgs)
	for _, d := range res.Diags {
		t.Errorf("%s", d.Render(loader.ModRoot))
	}
	for _, b := range res.BareIgnores {
		t.Errorf("%s", b.Render(loader.ModRoot))
	}
}
