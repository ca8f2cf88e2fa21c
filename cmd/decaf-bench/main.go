// Command decaf-bench regenerates the paper's evaluation (§5): run all
// experiments or a selection, printing one table per experiment.
//
// Usage:
//
//	decaf-bench [-exp all|e1,e2,...] [-t 10ms] [-quick] [-seed 1] [-debug-addr :8321]
//
// Experiments:
//
//	e1  transaction commit latency vs the 2t/3t analysis (§5.1.1)
//	e2  view notification latency vs the analysis (§5.1.2)
//	e3  observed vs analytic latency across induced delays (§5.2.2)
//	e4  lost-update rate under two-party blind-write load (§5.2.2)
//	e5  rollback rate for read-write transactions under load (§5.2.2)
//	e6  commit latency vs network size: DECAF vs GVT sweep (§5.1.3)
//	e7  responsiveness: replicated vs centralized architecture (§1)
//	e8  ablations: delegated commit (§3.1) and eager confirmation (§5.1.2)
//
// Performance of the implementation itself (transport, engine, fast path,
// observability cost) is measured by the benchmark under benchmark/
// (`bash benchmark/run.sh`), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"decaf"
	"decaf/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiments (e1..e8) or 'all'")
		lat       = flag.Duration("t", 10*time.Millisecond, "base one-way network latency t")
		quick     = flag.Bool("quick", false, "smaller sweeps and fewer trials")
		seed      = flag.Int64("seed", 1, "workload random seed")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/decaf/{state,trace} and pprof on this address (instruments site 1 of each experiment)")
	)
	flag.Parse()

	if *debugAddr != "" {
		o := decaf.NewObserver()
		srv, err := decaf.ServeDebug(*debugAddr, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		bench.SetObserver(o)
		fmt.Printf("debug server on http://%s/metrics\n", srv.Addr())
	}

	selected := map[string]bool{}
	if *exp == "all" {
		for _, e := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"} {
			selected[e] = true
		}
	} else {
		for _, e := range strings.Split(*exp, ",") {
			selected[strings.TrimSpace(strings.ToLower(e))] = true
		}
	}

	latCfg := bench.DefaultLatencyConfig()
	loadCfg := bench.DefaultLoadConfig()
	scaleCfg := bench.DefaultScaleConfig()
	loadCfg.Seed = *seed
	if *lat > 0 {
		latCfg.Delays = []time.Duration{*lat / 2, *lat, 2 * *lat}
		loadCfg.Latency = *lat
	}
	if *quick {
		latCfg.Delays = latCfg.Delays[:1]
		latCfg.Trials = 2
		loadCfg.Duration = 500 * time.Millisecond
		scaleCfg.Sizes = []int{3, 9, 17}
		scaleCfg.Trials = 2
	}

	type runner struct {
		name string
		run  func() (*bench.Table, error)
	}
	runners := []runner{
		{"e1", func() (*bench.Table, error) { return bench.E1CommitLatency(latCfg) }},
		{"e2", func() (*bench.Table, error) { return bench.E2ViewLatency(latCfg) }},
		{"e3", func() (*bench.Table, error) { return bench.E3LatencyVsDelay(latCfg) }},
		{"e4", func() (*bench.Table, error) { return bench.E4LostUpdates(loadCfg, nil) }},
		{"e5", func() (*bench.Table, error) { return bench.E5Rollbacks(loadCfg, 0, nil) }},
		{"e6", func() (*bench.Table, error) { return bench.E6Scalability(scaleCfg) }},
		{"e7", func() (*bench.Table, error) { return bench.E7Responsiveness(latCfg) }},
		{"e8", func() (*bench.Table, error) { return bench.E8Ablations(latCfg) }},
	}

	fmt.Println("DECAF evaluation harness — reproducing Strom et al., \"Concurrency Control and")
	fmt.Println("View Notification Algorithms for Collaborative Replicated Objects\" (section 5)")

	failed := false
	for _, r := range runners {
		if !selected[r.name] {
			continue
		}
		start := time.Now()
		tab, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			failed = true
			continue
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("  (%s in %v)\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
