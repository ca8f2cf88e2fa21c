package main

import (
	"sort"

	"decaf/internal/engine"
	"decaf/internal/vtime"
)

// metricDef names one reported metric. bound is the share by which an
// end-to-end metric may worsen before a change counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a collaborator feels. They mirror
// BENCHMARK.json (TestBenchmarkJSON checks that they agree).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_tput_tps", "1/s", "higher", 0.25},
	{"commit_p50_us", "us", "lower", 0.25},
	{"commit_p75_us", "us", "lower", 0.25},
	{"view_pess_p50_us", "us", "lower", 0.25},
	{"view_opt_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_txn", "us", "lower", 0.25},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

type values map[string]value

// quantiles stores the given quantiles of samples (in microseconds)
// under names.
func (m values) quantiles(samples []float64, names []string, ps []float64) {
	sort.Float64s(samples)
	for i, name := range names {
		m[name] = value{percentile(samples, ps[i]), len(samples)}
	}
}

func committed(ops []opRec) int {
	n := 0
	for _, r := range ops {
		if r.ok {
			n++
		}
	}
	return n
}

// commitLatencies returns due-to-Done of the committed operations, in
// microseconds.
func commitLatencies(ops []opRec) []float64 {
	out := make([]float64, 0, len(ops))
	for _, r := range ops {
		if r.ok {
			out = append(out, us(r.done-r.due))
		}
	}
	return out
}

// throughput is committed load transactions per second. A closed loop
// reports the median of four consecutive segments of the window, which
// one noisy stretch cannot move; an open loop commits what was offered,
// so it reports the whole window.
func throughput(w *workload, win *window) value {
	span := win.end - win.start
	n := committed(win.load)
	if w.rate > 0 || span <= 0 {
		return value{float64(n) / span.Seconds(), n}
	}
	const segments = 4
	var counts [segments]float64
	for _, r := range win.load {
		if r.ok && r.done >= win.start && r.done < win.end {
			counts[int(segments*(r.done-win.start)/span)]++
		}
	}
	seg := (span / segments).Seconds()
	for i := range counts {
		counts[i] /= seg
	}
	return value{median(counts[:]), n}
}

// viewLatencies matches what the views heard against the window's
// operations by snapshot VT = VT of the committing attempt, and returns
// due-to-Update in microseconds for views at a site other than the
// origin. With fromDone it measures from the origin's Done instead.
func viewLatencies(c *cluster, mode engine.ViewMode, ops []opRec, fromDone bool) []float64 {
	byVT := map[vtime.VT]*opRec{}
	for i := range ops {
		if ops[i].ok && c.w.viewed(ops[i].obj) {
			byVT[ops[i].vt] = &ops[i]
		}
	}
	var out []float64
	for _, v := range c.views {
		if v.mode != mode {
			continue
		}
		for _, note := range v.taken() {
			op := byVT[note.ts]
			if op == nil || op.origin == v.site {
				continue
			}
			from := op.due
			if fromDone {
				from = op.done
			}
			out = append(out, us(note.at-from))
		}
	}
	return out
}

// endToEndMetrics computes every end-to-end metric except setup_s.
func endToEndMetrics(c *cluster, win *window) values {
	m := values{}
	m["commit_tput_tps"] = throughput(c.w, win)
	m.quantiles(commitLatencies(win.load), []string{"commit_p50_us", "commit_p75_us"}, []float64{0.5, 0.75})
	m.quantiles(viewLatencies(c, engine.Pessimistic, win.load, false), []string{"view_pess_p50_us"}, []float64{0.5})
	m.quantiles(viewLatencies(c, engine.Optimistic, win.load, false), []string{"view_opt_p50_us"}, []float64{0.5})
	n := committed(win.load)
	m["cpu_us_per_txn"] = value{us(win.cpu) / float64(max(n, 1)), n}
	return m
}

// failures counts attempted and failed operations of a window: a result
// with Committed == false, or a deadline hit.
func failures(win *window) (attempted, failed, timeouts int) {
	for _, r := range win.load {
		attempted++
		if !r.ok {
			failed++
		}
		if r.timeout {
			timeouts++
		}
	}
	return
}
