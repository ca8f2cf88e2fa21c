package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func defsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// contract is BENCHMARK.json: the command, workloads, metrics and bounds
// an automated driver runs this benchmark by. `-list` prints it, so the
// file at the repository root is generated from the definitions here.
func contract() any {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []workloadJSON
	for _, w := range workloads {
		ws = append(ws, workloadJSON{w.name, w.why})
	}
	var e2e []boundedJSON
	for _, d := range endToEnd {
		e2e = append(e2e, boundedJSON{d.name, d.unit, d.better, d.bound})
	}
	var layers []layerJSON
	for _, d := range perLayer {
		layers = append(layers, layerJSON{d.name, d.unit, d.better})
	}
	return struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"}, defaultSeconds, ws, e2e, layers}
}

func list(w io.Writer) {
	data, _ := json.MarshalIndent(contract(), "", "  ")
	fmt.Fprintf(w, "%s\n", data)
}

// printResult prints one run: every metric by name with unit, sample
// count, value and bound.
func printResult(w io.Writer, r *result) {
	pass := "end-to-end, tracing off"
	if r.traced {
		pass = "traced run, per layer"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  (%s) ==\n", r.workload.name, r.seed, pass)
	fmt.Fprintf(w, "  %-36s %-6s %9s %16s  %s\n", "metric", "unit", "samples", "value", "bound")
	for _, d := range defsOf(r.traced) {
		v := r.metrics[d.name]
		bound := "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.bound)
		}
		fmt.Fprintf(w, "  %-36s %-6s %9d %16.4f  %s\n", d.name, d.unit, v.n, v.v, bound)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d (failed_share %.6f)\n", r.attempted, r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)))
	for _, v := range r.violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

// printSpread summarises repeated runs: per metric min, median, max and
// the interquartile distance as a share of the median, flagging an
// end-to-end metric whose spread exceeds its bound.
func printSpread(w io.Writer, results []*result) {
	type key struct {
		workload string
		traced   bool
	}
	groups := map[key][]*result{}
	var order []key
	for _, r := range results {
		k := key{r.workload.name, r.traced}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	for _, k := range order {
		rs := groups[k]
		fmt.Fprintf(w, "\n== %s: spread over %d runs ==\n", k.workload, len(rs))
		fmt.Fprintf(w, "  %-36s %14s %14s %14s %8s\n", "metric", "min", "median", "max", "iqr/med")
		for _, d := range defsOf(k.traced) {
			var vs []float64
			for _, r := range rs {
				vs = append(vs, r.metrics[d.name].v)
			}
			s := sortedCopy(vs)
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			flag := ""
			if d.bound > 0 && spread > d.bound && d.name != "setup_s" {
				flag = "  SPREAD EXCEEDS BOUND"
			} else if d.bound > 0 && spread > d.bound/3 && d.name != "setup_s" {
				flag = "  (above a third of the bound)"
			}
			fmt.Fprintf(w, "  %-36s %14.4f %14.4f %14.4f %7.1f%%%s\n", d.name, s[0], med, s[len(s)-1], 100*spread, flag)
		}
	}
}

// printBudget prints, from one full run of all workloads, how far the
// per-layer numbers explain the end-to-end ones. A remainder above 15%
// is marked UNEXPLAINED; closing it needs spans inside the program.
func printBudget(w io.Writer, results []*result) {
	get := func(name string, traced bool, metric string) float64 {
		for _, r := range results {
			if r.workload.name == name && r.traced == traced {
				return r.metrics[metric].v
			}
		}
		return 0
	}
	line := func(label string, whole, explained float64) {
		rest := whole - explained
		mark := ""
		if whole != 0 && rest/whole > 0.15 || whole != 0 && rest/whole < -0.15 {
			mark = "  UNEXPLAINED"
		}
		share := 0.0
		if whole != 0 {
			share = 100 * rest / whole
		}
		fmt.Fprintf(w, "  %-58s %9.1f us, layers explain %9.1f us, remainder %8.1f us (%5.1f%%)%s\n",
			label, whole, explained, rest, share, mark)
	}
	fmt.Fprintf(w, "\n== budget ==\n")
	extra := get("rmw-tcp", false, "cpu_us_per_txn") - get("rmw-mem", false, "cpu_us_per_txn")
	perMsg := get("rmw-tcp", true, "wire.encode_ns_per_msg") + get("rmw-tcp", true, "wire.decode_ns_per_msg") +
		get("rmw-tcp", true, "transport.send_ns_per_msg")
	line("cpu_us_per_txn(rmw-tcp) - cpu_us_per_txn(rmw-mem)", extra, get("rmw-tcp", true, "transport.msgs_per_txn")*perMsg/1e3)
	for _, wl := range workloads {
		if !wl.has(opRMW) {
			continue // its stages are measured after the load, not on it
		}
		var stages float64
		for _, s := range stageNames {
			stages += get(wl.name, true, "engine.stage_"+s+"_us_p50")
		}
		line("commit_p50_us("+wl.name+") against the five engine.stage_* medians", get(wl.name, false, "commit_p50_us"), stages)
	}
}

type jsonMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// contractJSON is the object the benchmark driver reads from the last
// line of standard output.
func contractJSON(r *result) map[string]any {
	metrics := map[string]jsonMetric{}
	for _, d := range defsOf(r.traced) {
		metrics[d.name] = jsonMetric{Value: r.metrics[d.name].v, Unit: d.unit}
	}
	return map[string]any{
		"correct":   r.correct(),
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	}
}

func writeJSON(path string, results []*result) error {
	var rows []map[string]any
	for _, r := range results {
		row := contractJSON(r)
		metrics := row["metrics"].(map[string]jsonMetric)
		for name, m := range metrics {
			m.Samples = r.metrics[name].n
			metrics[name] = m
		}
		row["workload"], row["seed"], row["traced"] = r.workload.name, r.seed, r.traced
		row["violations"] = r.violations
		rows = append(rows, row)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
