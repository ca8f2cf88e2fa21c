// Command benchmark is the repository's one reproducible benchmark: six
// workloads over three engine sites, seven gated end-to-end metrics and a
// per-layer budget measured from outside the program. README.md in this
// directory says why each workload and metric exists; BENCHMARK.json at
// the repository root is the contract an automated driver runs it by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// setups is how many times a run builds the cluster; setup_s is the
// median, and the last cluster is the one measured.
const setups = 5

type config struct {
	seconds float64
	seed    int64
	scratch string
	traces  string
	quick   bool
}

// result is one run of one workload: the end-to-end pass (traced false)
// or the traced pass that yields the per-layer metrics.
type result struct {
	workload   *workload
	seed       int64
	traced     bool
	attempted  int
	failed     int
	violations []string
	metrics    values
}

func (r *result) correct() bool { return len(r.violations) == 0 && r.failed == 0 }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg      config
		names    = fs.String("workload", "all", "comma-separated workload names, or all")
		trace    = fs.String("trace", "both", "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics; both")
		repeat   = fs.Int("repeat", 1, "run the set this many times with seeds seed, seed+1, ... and report the spread")
		out      = fs.String("out", "", "also write the results as JSON to this file")
		listOnly = fs.Bool("list", false, "print BENCHMARK.json, generated from the workloads and metrics defined here, and exit")
	)
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of one measurement window")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every random choice the load makes")
	fs.StringVar(&cfg.scratch, "dir", ".bench_build/run", "directory for WAL files")
	fs.StringVar(&cfg.traces, "traces", "benchmark/out", "directory for the traced runs' span files; empty writes none")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke sizing: short windows, one set-up; numbers mean nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listOnly {
		list(stdout)
		return 0
	}
	var selected []*workload
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			selected = append(selected, workloads...)
		} else if w := findWorkload(name); w != nil {
			selected = append(selected, w)
		} else {
			fmt.Fprintf(stderr, "unknown workload %q\n", name)
			return 2
		}
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "-trace must be 0, 1 or both\n")
		return 2
	}
	if cfg.quick {
		cfg.seconds = 0.3
	}
	if cfg.seconds <= 0 || *repeat < 1 {
		fmt.Fprintf(stderr, "-seconds and -repeat must be positive\n")
		return 2
	}

	// A wedged engine must yield a failed run with a reason, not a
	// stuck process: every wait inside a run has its own deadline, and
	// this watchdog covers whatever those miss.
	perRun := time.Duration(cfg.seconds*float64(time.Second)) + 15*time.Second
	planned := perRun * time.Duration(len(selected)*len(passes)**repeat)
	watchdog := time.AfterFunc(3*planned, func() {
		fmt.Fprintf(stderr, "watchdog: still running after %v (3x the planned duration); goroutines:\n", 3*planned)
		pprof.Lookup("goroutine").WriteTo(stderr, 1)
		os.Exit(3)
	})
	defer watchdog.Stop()

	var results []*result
	for i := 0; i < *repeat; i++ {
		for _, w := range selected {
			for _, traced := range passes {
				c := cfg
				c.seed += int64(i)
				run := runEndToEnd
				if traced {
					run = runTraced
				}
				r, err := run(w, c)
				if err != nil {
					fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
					return 1
				}
				results = append(results, r)
				printResult(stdout, r)
				runtime.GC() // the next run starts without this one's garbage
			}
		}
	}
	if *repeat > 1 {
		printSpread(stdout, results)
	}
	if len(selected) == len(workloads) && len(passes) == 2 && *repeat == 1 {
		printBudget(stdout, results)
	}
	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	ok := true
	for _, r := range results {
		ok = ok && r.correct()
	}
	// The driver's contract: the last line of a single run is one JSON
	// object.
	if len(results) == 1 {
		line, _ := json.Marshal(contractJSON(results[0]))
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		return 1
	}
	return 0
}

// setUp builds a cluster and warms it up; together that is setup_s.
func setUp(w *workload, traced bool, cfg config) (*cluster, time.Duration, error) {
	start := time.Now()
	c, err := newCluster(w, traced, cfg.scratch)
	if err != nil {
		return nil, 0, err
	}
	generators := 1
	if w.rate == 0 {
		generators = clientsPerOrigin * len(w.origins)
	}
	ops := w.warmup / generators
	if cfg.quick {
		ops = max(ops/20, 1)
	}
	win := c.runWindow(cfg.seed+7919, 0, ops)
	if _, failed, _ := failures(win); failed != 0 {
		c.close()
		return nil, 0, fmt.Errorf("%d warm-up transactions failed", failed)
	}
	return c, time.Since(start), nil
}

// runEndToEnd sets up (several times, for a steady setup_s), measures
// one window with tracing off, and checks the outputs.
func runEndToEnd(w *workload, cfg config) (*result, error) {
	n := setups
	if cfg.quick {
		n = 1
	}
	var c *cluster
	var took []float64
	for i := 0; i < n; i++ {
		if c != nil {
			c.close()
		}
		var d time.Duration
		var err error
		if c, d, err = setUp(w, false, cfg); err != nil {
			return nil, err
		}
		took = append(took, d.Seconds())
	}
	defer c.close()

	win := c.runWindow(cfg.seed, time.Duration(cfg.seconds*float64(time.Second)), 0)
	r := &result{workload: w, seed: cfg.seed, metrics: endToEndMetrics(c, win)}
	r.metrics["setup_s"] = value{median(took), len(took)}
	r.attempted, r.failed, _ = failures(win)
	r.violations = c.check(win)
	for _, d := range endToEnd {
		if v, ok := r.metrics[d.name]; !ok || v.n == 0 || v.v <= 0 {
			r.violations = append(r.violations, fmt.Sprintf("metric %s has no samples", d.name))
		}
	}
	return r, nil
}
