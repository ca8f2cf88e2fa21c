package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"decaf/internal/engine"
	"decaf/internal/history"
	"decaf/internal/obs"
	"decaf/internal/vtime"
	"decaf/internal/wal"
	"decaf/internal/wire"
)

// perLayer are the metrics of single layers, named <layer>.<metric>.
// Counts are deltas over the traced window summed over the sites and
// divided by the commits in it; times come from the traced window or
// from an isolated replay through the layer's exported functions.
// README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{name: "wire.bytes_per_msg", unit: "B", better: "lower"},
	{name: "wire.encode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_msg", unit: "ns", better: "lower"},

	{name: "transport.msgs_per_txn", unit: "count", better: "lower"},
	{name: "transport.msgs_per_batch", unit: "count", better: "higher"},
	{name: "transport.send_ns_per_msg", unit: "ns", better: "lower"},
	{name: "transport.transit_us_p50", unit: "us", better: "lower"},
	{name: "transport.transit_us_p90", unit: "us", better: "lower"},
	{name: "transport.wire_bytes_per_txn", unit: "B", better: "lower"},
	{name: "transport.drops", unit: "count", better: "lower"},
	{name: "transport.retransmits", unit: "count", better: "lower"},

	{name: "engine.exec_us_p50", unit: "us", better: "lower"},
	{name: "engine.confirm_wait_us_p50", unit: "us", better: "lower"},
	{name: "engine.commit_p95_us", unit: "us", better: "lower"},
	{name: "engine.commit_p99_us", unit: "us", better: "lower"},
	{name: "engine.aborts_per_commit", unit: "count", better: "lower"},
	{name: "engine.retries_per_commit", unit: "count", better: "lower"},
	{name: "engine.events_per_batch", unit: "count", better: "higher"},
	{name: "engine.coalesced_sends_per_txn", unit: "count", better: "higher"},
	{name: "engine.sharded_write_share", unit: "share", better: "higher"},
	{name: "engine.fastpath_share", unit: "share", better: "higher"},
	{name: "engine.fastpath_demotions", unit: "count", better: "lower"},
	{name: "engine.stage_queue_us_p50", unit: "us", better: "lower"},
	{name: "engine.stage_exec_us_p50", unit: "us", better: "lower"},
	{name: "engine.stage_to_primary_us_p50", unit: "us", better: "lower"},
	{name: "engine.stage_confirm_us_p50", unit: "us", better: "lower"},
	{name: "engine.stage_commit_us_p50", unit: "us", better: "lower"},

	{name: "views.pess_per_commit", unit: "count", better: "lower"},
	{name: "views.opt_per_commit", unit: "count", better: "lower"},
	{name: "views.lost_update_share", unit: "share", better: "lower"},
	{name: "views.inconsistency_share", unit: "share", better: "lower"},
	{name: "views.snapshot_reruns_per_commit", unit: "count", better: "lower"},
	{name: "views.notify_dropped", unit: "count", better: "lower"},
	{name: "views.commit_to_pess_us_p50", unit: "us", better: "lower"},
	{name: "views.pess_p90_us", unit: "us", better: "lower"},
	{name: "views.pess_p99_us", unit: "us", better: "lower"},

	{name: "history.rmw_check_ns", unit: "ns", better: "lower"},
	{name: "history.merge_insert_ns", unit: "ns", better: "lower"},
	{name: "history.gc_ns_per_version", unit: "ns", better: "lower"},

	{name: "wal.records_per_txn", unit: "count", better: "lower"},
	{name: "wal.bytes_per_txn", unit: "B", better: "lower"},
	{name: "wal.syncs_per_txn", unit: "count", better: "lower"},
	{name: "wal.append_us_p50", unit: "us", better: "lower"},
	{name: "wal.sync_us_p50", unit: "us", better: "lower"},
	{name: "wal.sync_us_p90", unit: "us", better: "lower"},
	{name: "wal.recover_us_per_record", unit: "us", better: "lower"},
	{name: "wal.append_errors", unit: "count", better: "lower"},

	{name: "repgraph.join_ms_p50", unit: "ms", better: "lower"},

	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "obs.trace_dropped", unit: "count", better: "lower"},

	{name: "proc.allocs_per_txn", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_txn", unit: "B", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.heap_inuse_mb_end", unit: "MB", better: "lower"},

	{name: "harness.gen_late_p99_us", unit: "us", better: "lower"},
	{name: "harness.timeouts", unit: "count", better: "lower"},
	{name: "harness.failed_share", unit: "share", better: "lower"},
	{name: "harness.samples", unit: "count", better: "higher"},
}

// stageNames are the five consecutive stages of one guessed transaction
// as the obs trace ring shows them, stitched across sites by TxnVT:
// submit, execute, first propagate, primary check, decision (CONFIRM at
// the origin, or the delegate's commit), commit at the origin.
var stageNames = []string{"queue", "exec", "to_primary", "confirm", "commit"}

// counters are the engine's registry counters the per-layer metrics are
// computed from; Site.Stats is a view over the same registry.
var counters = []string{
	"decaf_txn_committed_total",
	"decaf_txn_conflict_aborts_total",
	"decaf_txn_retries_total",
	"decaf_fastpath_commits_total",
	"decaf_fastpath_demotions_total",
	"decaf_view_pess_notifications_total",
	"decaf_view_opt_notifications_total",
	"decaf_view_lost_updates_total",
	"decaf_view_update_inconsistencies_total",
	"decaf_view_snapshot_reruns_total",
	"decaf_notify_dropped_total",
	"decaf_wal_append_errors_total",
	"decaf_engine_batches_total",
	"decaf_engine_batch_events_total",
	"decaf_engine_coalesced_sends_total",
	"decaf_engine_sharded_writes_total",
	"decaf_engine_serial_writes_total",
}

// counterTotals reads the counters, summed over the sites.
func counterTotals(c *cluster) map[string]float64 {
	out := map[string]float64{}
	for _, s := range c.sites {
		for _, name := range counters {
			v, _ := s.Observer().Metrics().Value(name)
			out[name] += v
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced measures a short reference window with tracing off, then
// rebuilds the cluster with the endpoint taps and the obs trace ring on,
// measures the traced window, checks the outputs, and replays what the
// taps captured through wire, history and wal in isolation.
func runTraced(w *workload, cfg config) (*result, error) {
	total := time.Duration(cfg.seconds * float64(time.Second))

	ref, _, err := setUp(w, false, cfg)
	if err != nil {
		return nil, err
	}
	refWin := ref.runWindow(cfg.seed, total*4/10, 0)
	ref.close()

	c, _, err := setUp(w, true, cfg)
	if err != nil {
		return nil, err
	}
	defer c.close()
	win := c.runWindow(cfg.seed, total*6/10, 0)
	if !w.has(opRMW) {
		// The stages are those of a guessed transaction, and this load
		// has none: measure them on read-modify-writes run after it.
		c.guessedTail()
	}

	r := &result{workload: w, seed: cfg.seed, traced: true, metrics: values{}}
	r.violations = c.check(win)
	m := r.metrics

	delta := func(counter string) float64 { return win.counters[1][counter] - win.counters[0][counter] }
	commits := delta("decaf_txn_committed_total")
	n := int(commits)
	per := func(name, counter string) { m[name] = value{ratio(delta(counter), commits), n} }

	// engine
	var exec, wait []float64
	for _, op := range win.load {
		if op.ok {
			exec = append(exec, us(op.applied-op.sent))
			wait = append(wait, us(op.done-op.applied))
		}
	}
	m.quantiles(exec, []string{"engine.exec_us_p50"}, []float64{0.5})
	m.quantiles(wait, []string{"engine.confirm_wait_us_p50"}, []float64{0.5})
	m.quantiles(commitLatencies(win.load), []string{"engine.commit_p95_us", "engine.commit_p99_us"}, []float64{0.95, 0.99})
	per("engine.aborts_per_commit", "decaf_txn_conflict_aborts_total")
	per("engine.retries_per_commit", "decaf_txn_retries_total")
	batches := delta("decaf_engine_batches_total")
	m["engine.events_per_batch"] = value{ratio(delta("decaf_engine_batch_events_total"), batches), int(batches)}
	per("engine.coalesced_sends_per_txn", "decaf_engine_coalesced_sends_total")
	writes := delta("decaf_engine_sharded_writes_total") + delta("decaf_engine_serial_writes_total")
	m["engine.sharded_write_share"] = value{ratio(delta("decaf_engine_sharded_writes_total"), writes), int(writes)}
	per("engine.fastpath_share", "decaf_fastpath_commits_total")
	m["engine.fastpath_demotions"] = value{delta("decaf_fastpath_demotions_total"), n}
	spans := stitch(c, m)

	// views
	per("views.pess_per_commit", "decaf_view_pess_notifications_total")
	per("views.opt_per_commit", "decaf_view_opt_notifications_total")
	opt := delta("decaf_view_opt_notifications_total")
	lost := delta("decaf_view_lost_updates_total")
	m["views.lost_update_share"] = value{ratio(lost, lost+opt), int(lost + opt)}
	m["views.inconsistency_share"] = value{ratio(delta("decaf_view_update_inconsistencies_total"), opt), int(opt)}
	per("views.snapshot_reruns_per_commit", "decaf_view_snapshot_reruns_total")
	m["views.notify_dropped"] = value{win.counters[1]["decaf_notify_dropped_total"], n}
	m.quantiles(viewLatencies(c, engine.Pessimistic, win.load, true), []string{"views.commit_to_pess_us_p50"}, []float64{0.5})
	m.quantiles(viewLatencies(c, engine.Pessimistic, win.load, false),
		[]string{"views.pess_p90_us", "views.pess_p99_us"}, []float64{0.9, 0.99})

	// transport and wire
	taps := c.taps
	msgs := float64(win.tap[1].msgs - win.tap[0].msgs)
	calls := float64(win.tap[1].calls - win.tap[0].calls)
	sample := taps.sampled()
	wireReplay(sample, cfg, m)
	var transit []float64
	for _, d := range taps.transits() {
		transit = append(transit, us(d))
	}
	m.quantiles(transit, []string{"transport.transit_us_p50", "transport.transit_us_p90"}, []float64{0.5, 0.9})
	m["transport.msgs_per_txn"] = value{ratio(msgs, commits), int(msgs)}
	m["transport.msgs_per_batch"] = value{ratio(msgs, calls), int(calls)}
	m["transport.send_ns_per_msg"] = value{ratio(float64(win.tap[1].sendNs-win.tap[0].sendNs), msgs), int(msgs)}
	m["transport.wire_bytes_per_txn"] = value{ratio(msgs, commits) * m["wire.bytes_per_msg"].v, int(msgs)}
	m["transport.drops"] = value{float64(c.transportDrops()), int(msgs)}
	var retransmits uint64
	for _, t := range c.tcps {
		retransmits += t.Stats().Retransmits
	}
	m["transport.retransmits"] = value{float64(retransmits), int(msgs)}

	// history, wal
	historyReplay(cfg, m)
	var records, bytes, syncs int64
	for i := range win.wal[1] {
		records += win.wal[1][i].Records - win.wal[0][i].Records
		bytes += win.wal[1][i].Bytes - win.wal[0][i].Bytes
		syncs += win.wal[1][i].Syncs - win.wal[0][i].Syncs
	}
	m["wal.records_per_txn"] = value{ratio(float64(records), commits), n}
	m["wal.bytes_per_txn"] = value{ratio(float64(bytes), commits), n}
	m["wal.syncs_per_txn"] = value{ratio(float64(syncs), commits), n}
	m["wal.append_errors"] = value{win.counters[1]["decaf_wal_append_errors_total"], n}
	perSync := 4
	if syncs > 0 {
		perSync = max(int(records/syncs), 1)
	}
	if err := walReplay(sample, perSync, cfg, m); err != nil {
		r.violations = append(r.violations, "wal replay: "+err.Error())
	}

	// repgraph, obs, proc, harness
	m["repgraph.join_ms_p50"] = value{median(c.joinMs), len(c.joinMs)}
	// A closed loop slows down under tracing; an open loop commits what is
	// offered either way, so there the overhead is the extra CPU.
	cost := func(win *window) float64 { return ratio((win.end - win.start).Seconds(), float64(committed(win.load))) }
	if w.rate > 0 {
		cost = func(win *window) float64 { return ratio(win.cpu.Seconds(), float64(committed(win.load))) }
	}
	m["obs.trace_overhead_pct"] = value{100 * (1 - ratio(cost(refWin), cost(win))), committed(win.load)}
	var dropped, recorded uint64
	for _, s := range c.sites {
		dropped += s.Observer().Trace().Dropped()
		recorded += s.Observer().Trace().Recorded()
	}
	m["obs.trace_dropped"] = value{float64(dropped), int(recorded)}
	if dropped != 0 {
		r.violations = append(r.violations, fmt.Sprintf("trace ring overwrote %d events", dropped))
	}
	m["proc.allocs_per_txn"] = value{ratio(float64(win.mem[1].Mallocs-win.mem[0].Mallocs), commits), n}
	m["proc.alloc_bytes_per_txn"] = value{ratio(float64(win.mem[1].TotalAlloc-win.mem[0].TotalAlloc), commits), n}
	m["proc.gc_pause_ms"] = value{float64(win.mem[1].PauseTotalNs) / 1e6, int(win.mem[1].NumGC)}
	m["proc.heap_inuse_mb_end"] = value{float64(win.mem[1].HeapInuse) / 1e6, 1}

	var late []float64
	for _, op := range win.load {
		late = append(late, us(op.sent-op.due))
	}
	m.quantiles(late, []string{"harness.gen_late_p99_us"}, []float64{0.99})
	a0, f0, t0 := failures(refWin)
	a1, f1, t1 := failures(win)
	r.attempted, r.failed = a0+a1, f0+f1
	m["harness.timeouts"] = value{float64(t0 + t1), r.attempted}
	m["harness.failed_share"] = value{ratio(float64(r.failed), float64(r.attempted)), r.attempted}
	m["harness.samples"] = value{float64(a1), a1}

	if cfg.traces != "" {
		if err := writeSpans(filepath.Join(cfg.traces, "trace-"+w.name+".json"), spans); err != nil {
			return nil, err
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			r.violations = append(r.violations, fmt.Sprintf("metric %s was not produced", d.name))
		}
	}
	return r, nil
}

// guessedTail runs 500 read-modify-writes, one at a time, from site 2 on
// the last object.
func (c *cluster) guessedTail() {
	ref := c.objs[1][c.w.nobj-1]
	txn := transaction(opRMW, &ref, nil)
	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	for i := 0; i < 500; i++ {
		var rec opRec
		c.run(2, txn, timer, &rec)
		if rec.ok {
			c.commits++
		}
	}
}

// span is one traced interval: name, start and end in nanoseconds since
// the cluster's epoch, the span that caused it, and the transaction.
type span struct {
	ID     int      `json:"id"`
	Parent int      `json:"parent,omitempty"`
	Name   string   `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	TxnVT  vtime.VT `json:"txn_vt"`
}

// maxSpanTxns bounds the transactions written to the span file.
const maxSpanTxns = 2000

// stitch reads the three sites' trace rings, joins the events of each
// transaction by TxnVT, stores the median of each stage in m, and
// returns the spans of the first maxSpanTxns transactions.
func stitch(c *cluster, m values) []span {
	type stamps struct{ submit, exec, prop, check, decide, commit int64 }
	byVT := map[vtime.VT]*stamps{}
	for _, s := range c.sites {
		for _, ev := range s.Observer().Trace().Events() {
			t := byVT[ev.TxnVT]
			if t == nil {
				t = &stamps{}
				byVT[ev.TxnVT] = t
			}
			switch ev.Kind {
			case obs.EvSubmit:
				t.submit = ev.Wall
			case obs.EvExecute:
				t.exec = ev.Wall
			case obs.EvPropagate:
				if t.prop == 0 || ev.Wall < t.prop {
					t.prop = ev.Wall
				}
			case obs.EvPrimaryCheck:
				t.check = max(t.check, ev.Wall)
			case obs.EvConfirm, obs.EvDelegatedCommit:
				t.decide = max(t.decide, ev.Wall)
			case obs.EvCommit:
				if ev.Site == ev.TxnVT.Site {
					t.commit = ev.Wall
				}
			}
		}
	}
	vts := make([]vtime.VT, 0, len(byVT))
	for vt, t := range byVT {
		// Only first attempts that went through every stage: retries
		// have no submit event, fast-path commits no primary check.
		if t.submit != 0 && t.exec != 0 && t.prop != 0 && t.check != 0 && t.decide != 0 && t.commit != 0 {
			vts = append(vts, vt)
		}
	}
	sort.Slice(vts, func(i, j int) bool { return vts[i].Less(vts[j]) })
	stages := make([][]float64, len(stageNames))
	var spans []span
	epoch := c.epoch.UnixNano()
	for i, vt := range vts {
		t := byVT[vt]
		edges := []int64{t.submit, t.exec, t.prop, t.check, t.decide, t.commit}
		for k := range stageNames {
			stages[k] = append(stages[k], us(time.Duration(edges[k+1]-edges[k])))
		}
		if i < maxSpanTxns {
			root := len(spans) + 1
			spans = append(spans, span{ID: root, Name: "txn", Start: t.submit - epoch, End: t.commit - epoch, TxnVT: vt})
			for k, name := range stageNames {
				spans = append(spans, span{ID: len(spans) + 1, Parent: root, Name: name, Start: edges[k] - epoch, End: edges[k+1] - epoch, TxnVT: vt})
			}
		}
	}
	for k, name := range stageNames {
		m.quantiles(stages[k], []string{"engine.stage_" + name + "_us_p50"}, []float64{0.5})
	}
	return spans
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// replayBudget is how long each isolated replay loop runs.
func replayBudget(cfg config) time.Duration {
	if cfg.quick {
		return 10 * time.Millisecond
	}
	return 100 * time.Millisecond
}

// wireReplay encodes and decodes the message mix the taps captured.
func wireReplay(sample []wire.Message, cfg config, m values) {
	if len(sample) == 0 {
		return
	}
	var buf []byte
	var ends []int
	for _, msg := range sample {
		var err error
		if buf, err = wire.AppendMessage(buf, msg); err != nil {
			continue
		}
		ends = append(ends, len(buf))
	}
	m["wire.bytes_per_msg"] = value{ratio(float64(len(buf)), float64(len(ends))), len(ends)}

	budget := replayBudget(cfg)
	var scratch []byte
	count, start := 0, time.Now()
	for time.Since(start) < budget {
		for _, msg := range sample {
			scratch, _ = wire.AppendMessage(scratch[:0], msg)
		}
		count += len(sample)
	}
	m["wire.encode_ns_per_msg"] = value{ratio(float64(time.Since(start).Nanoseconds()), float64(count)), count}

	count, start = 0, time.Now()
	for time.Since(start) < budget {
		for rest := buf; len(rest) > 0; {
			_, n, err := wire.DecodeMessage(rest)
			if err != nil {
				break
			}
			rest = rest[n:]
			count++
		}
	}
	m["wire.decode_ns_per_msg"] = value{ratio(float64(time.Since(start).Nanoseconds()), float64(count)), count}
}

// historyDepth is the number of versions and of reservations an object
// holds in the isolated history replay.
const historyDepth = 8

// historyReplay times what a primary does to one object's history for a
// guessed read-modify-write and for a commutative merge, and what GC
// costs per discarded version.
func historyReplay(cfg config, m values) {
	budget := replayBudget(cfg)
	at := func(t uint64) vtime.VT { return vtime.VT{Time: t, Site: 2} }

	// Each timed batch grows the history from historyDepth to twice
	// that; trimming it back is not timed.
	replay := func(name string, op func(h *history.History, res *history.Reservations, t uint64)) {
		var h history.History
		var res history.Reservations
		t := uint64(1)
		for ; t <= historyDepth; t++ {
			_ = h.Insert(at(t), int64(t), history.Committed)
			res.Reserve(vtime.Interval{Lo: at(t - 1), Hi: at(t)}, at(t))
		}
		var busy time.Duration
		count := 0
		for busy < budget {
			start := time.Now()
			for i := 0; i < historyDepth; i++ {
				op(&h, &res, t)
				t++
			}
			busy += time.Since(start)
			count += historyDepth
			h.GC(at(t - historyDepth))
			res.GCBelow(at(t - historyDepth))
		}
		m[name] = value{ratio(float64(busy.Nanoseconds()), float64(count)), count}
	}
	replay("history.rmw_check_ns", func(h *history.History, res *history.Reservations, t uint64) {
		iv := vtime.Interval{Lo: at(t - 1), Hi: at(t)}
		if h.HasVersionIn(iv, at(t)) || res.Conflicts(at(t), at(t)) {
			panic("history replay: a fresh interval conflicts")
		}
		res.Reserve(iv, at(t))
		_ = h.InsertRead(at(t), int64(t), history.Pending, at(t-1))
		h.Commit(at(t))
	})
	replay("history.merge_insert_ns", func(h *history.History, _ *history.Reservations, t uint64) {
		_ = h.InsertMerge(at(t), history.Pending, at(t-1), func(prev any) any { return prev.(int64) + 1 })
		h.Commit(at(t))
	})

	const versions = 1024
	var busy time.Duration
	count := 0
	for busy < budget {
		var h history.History
		for t := uint64(1); t <= versions; t++ {
			_ = h.Insert(at(t), int64(t), history.Committed)
		}
		start := time.Now()
		count += h.GC(at(versions))
		busy += time.Since(start)
	}
	m["history.gc_ns_per_version"] = value{ratio(float64(busy.Nanoseconds()), float64(count)), count}
}

// walReplay appends the captured messages as log records to a SyncBatch
// log, perSync records per fsync, then reopens the log and replays it.
func walReplay(sample []wire.Message, perSync int, cfg config, m values) error {
	var payloads [][]byte
	for _, msg := range sample {
		switch msg.(type) {
		case wire.Write, wire.FastWrite, wire.Outcome: // what the engine logs
			if b, err := wire.AppendMessage(nil, msg); err == nil {
				payloads = append(payloads, b)
			}
		}
	}
	if len(payloads) == 0 {
		return fmt.Errorf("no loggable message captured")
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "walreplay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, walOptions(walFsync))
	if err != nil {
		return err
	}
	defer log.Close()

	budget := 3 * replayBudget(cfg)
	var appends, syncs []float64
	for i, begin := 0, time.Now(); time.Since(begin) < budget; {
		for k := 0; k < perSync; k++ {
			rec := wal.Record{Kind: wal.RecordMessage, Origin: 2, Time: uint64(i + 1), Payload: payloads[i%len(payloads)]}
			start := time.Now()
			if err := log.Append(rec); err != nil {
				return err
			}
			appends = append(appends, us(time.Since(start)))
			i++
		}
		start := time.Now()
		if err := log.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, us(time.Since(start)))
	}
	m.quantiles(appends, []string{"wal.append_us_p50"}, []float64{0.5})
	m.quantiles(syncs, []string{"wal.sync_us_p50", "wal.sync_us_p90"}, []float64{0.5, 0.9})
	if err := log.Close(); err != nil {
		return err
	}

	start := time.Now()
	reopened, err := wal.Open(dir, walOptions(walFsync))
	if err != nil {
		return err
	}
	defer reopened.Close()
	replayed := 0
	if err := reopened.Replay(func(wal.Record) error { replayed++; return nil }); err != nil {
		return err
	}
	if replayed != len(appends) {
		return fmt.Errorf("replayed %d of %d records", replayed, len(appends))
	}
	m["wal.recover_us_per_record"] = value{us(time.Since(start)) / float64(replayed), replayed}
	return nil
}
