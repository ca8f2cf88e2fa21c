// Command decaf-sim drives the deterministic simulation harness
// (internal/sim): whole-cluster runs on a virtual clock, exploring
// message interleavings by seed and checking convergence, accounting
// identities, and GVT monotonicity after quiescence.
//
// Sweep mode (default) runs every profile across a contiguous seed
// range and exits 1 if any run fails, printing a one-line replay
// command per failure:
//
//	decaf-sim -seeds 200 [-start 1] [-profiles faulty,nofast] [-artifacts DIR]
//
// With -artifacts, each failing run's full event trace is written to
// DIR/<profile>-seed<seed>.trace so CI can upload it.
//
// Replay mode re-runs a single (profile, seed) and prints the full
// event trace — the exact interleaving, step by step:
//
//	decaf-sim -replay -profile nofast -seed 107
//
// Paper mode reproduces the paper's §5 evaluation (E1–E8) in virtual
// time, where one hop costs exactly the one-way delay t, prints one
// table per experiment, and exits 1 if any row misses its model. The
// output is a pure function of the code: two runs are byte-identical.
//
//	decaf-sim -paper
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"decaf/internal/sim"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 50, "number of seeds per profile in sweep mode")
		start     = flag.Int64("start", 1, "first seed")
		profiles  = flag.String("profiles", "all", "comma-separated profile names, or 'all'")
		artifacts = flag.String("artifacts", "", "directory for failing-run trace artifacts ('' disables)")
		replay    = flag.Bool("replay", false, "replay one (profile, seed) and print its trace")
		profile   = flag.String("profile", "", "profile name for -replay")
		seed      = flag.Int64("seed", 1, "seed for -replay")
		gvtSeeds  = flag.Int("gvt-seeds", 0, "additionally run this many seeds of the GVT ring simulation")
		paper     = flag.Bool("paper", false, "print the paper's section 5 tables (E1-E8) in virtual time; exit 1 if any row misses its model")
	)
	flag.Parse()

	if *paper {
		os.Exit(runPaper())
	}
	if *replay {
		os.Exit(runReplay(*profile, *seed))
	}
	os.Exit(runSweep(*profiles, *start, *seeds, *gvtSeeds, *artifacts))
}

func runReplay(name string, seed int64) int {
	p, ok := sim.ProfileByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown profile %q (have: %s)\n", name, profileNames())
		return 2
	}
	r := sim.Run(p, seed)
	fmt.Print(r.Trace)
	fmt.Printf("steps=%d killed=%s\n", r.Steps, sim.KilledLabel(r.Killed))
	fmt.Printf("fingerprint: %s\n", r.Fingerprint)
	if r.Err != nil {
		fmt.Printf("FAIL: %v\n", r.Err)
		return 1
	}
	fmt.Println("ok")
	return 0
}

func runPaper() int {
	fmt.Println("DECAF: the paper's section 5 evaluation in virtual time (one hop costs exactly t)")
	tabs, err := sim.PaperTables()
	var misses []string
	rows := 0
	for _, t := range tabs {
		t.Fprint(os.Stdout)
		rows += len(t.Rows)
		misses = append(misses, t.Misses()...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		return 1
	}
	fmt.Printf("\npaper: %d tables, %d rows, %d misses\n", len(tabs), rows, len(misses))
	for _, m := range misses {
		fmt.Printf("MISS %s\n", m)
	}
	if len(misses) > 0 {
		return 1
	}
	return 0
}

func runSweep(names string, start int64, count, gvtCount int, artifactDir string) int {
	ps := sim.Profiles()
	if names != "all" {
		want := map[string]bool{}
		for _, n := range strings.Split(names, ",") {
			want[strings.TrimSpace(n)] = true
		}
		kept := ps[:0]
		for _, p := range ps {
			if want[p.Name] {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "no matching profiles in %q (have: %s)\n", names, profileNames())
			return 2
		}
		ps = kept
	}

	type job struct {
		profile sim.Profile
		seed    int64
	}
	var jobs []job
	for _, p := range ps {
		for _, s := range sim.Seeds(start, count) {
			jobs = append(jobs, job{p, s})
		}
	}

	// Each run is internally deterministic (one virtual clock, lock-step
	// event delivery); runs share nothing, so the sweep itself can use
	// every core.
	var (
		mu       sync.Mutex
		failures []sim.Result
		next     int
	)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(jobs) {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()
				r := sim.Run(j.profile, j.seed)
				if r.Err != nil {
					mu.Lock()
					failures = append(failures, r)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	sort.Slice(failures, func(i, j int) bool {
		if failures[i].Profile != failures[j].Profile {
			return failures[i].Profile < failures[j].Profile
		}
		return failures[i].Seed < failures[j].Seed
	})
	for _, r := range failures {
		fmt.Printf("FAIL %s seed=%d: %v\n", r.Profile, r.Seed, r.Err)
		fmt.Printf("  replay: go run ./cmd/decaf-sim -replay -profile %s -seed %d\n", r.Profile, r.Seed)
		if artifactDir != "" {
			if err := writeArtifact(artifactDir, r); err != nil {
				fmt.Fprintf(os.Stderr, "  artifact: %v\n", err)
			}
		}
	}

	gvtFailures := 0
	if gvtCount > 0 {
		gp := sim.GVTProfile{Name: "ring3", Sites: 3, Jitter: 4e6}
		for _, s := range sim.Seeds(start, gvtCount) {
			if r := sim.RunGVT(gp, s); r.Err != nil {
				gvtFailures++
				fmt.Printf("FAIL gvt/%s seed=%d: %v\n", gp.Name, r.Seed, r.Err)
			}
		}
		fmt.Printf("gvt: %d seeds, %d failures\n", gvtCount, gvtFailures)
	}

	fmt.Printf("sweep: %d runs (%d profiles x %d seeds from %d), %d failures\n",
		len(jobs), len(ps), count, start, len(failures))
	if len(failures) > 0 || gvtFailures > 0 {
		return 1
	}
	return 0
}

func writeArtifact(dir string, r sim.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace", r.Profile, r.Seed))
	var b strings.Builder
	fmt.Fprintf(&b, "profile=%s seed=%d steps=%d killed=%s\n", r.Profile, r.Seed, r.Steps, sim.KilledLabel(r.Killed))
	fmt.Fprintf(&b, "error: %v\n", r.Err)
	fmt.Fprintf(&b, "fingerprint: %s\n", r.Fingerprint)
	fmt.Fprintf(&b, "replay: go run ./cmd/decaf-sim -replay -profile %s -seed %d\n\n", r.Profile, r.Seed)
	b.WriteString(r.Trace)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func profileNames() string {
	var names []string
	for _, p := range sim.Profiles() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}
