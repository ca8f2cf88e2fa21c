package sim

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"decaf/internal/centralized"
	"decaf/internal/engine"
	"decaf/internal/gvt"
	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// The paper's §5 evaluation (E1–E7) in virtual time. Every scenario runs
// the real engine on a jitter-free network driven by the virtual clock,
// so a hop costs exactly t and a latency comes out as an exact multiple
// of t. Each experiment returns a Table whose rows carry their own
// verdict against the paper's model; `decaf-sim -paper` prints them and
// TestPaperSection5 gates them.

const (
	// paperT is the one-way delay t of the latency experiments; E3 sweeps
	// it over sweepT.
	paperT = 10 * time.Millisecond
	// trials is how often each latency scenario is repeated; every trial
	// must land on the model.
	trials = 3
	// loadSpan is the virtual length of an E5 run; an E4 row makes as
	// many updates per party, on average, at every rate.
	loadSpan = 600 * time.Second
	// loadSeed seeds the Poisson arrivals of E4 and E5.
	loadSeed = 10
)

var (
	sweepT = []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	loadT  = []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
)

// Table is one experiment's result.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    []Row
}

// Row is one table row: its cells, and the model it misses ("" when it
// meets every model it is gated on).
type Row struct {
	Cells []string
	Miss  string
}

func (t *Table) add(miss []string, cells ...string) {
	t.Rows = append(t.Rows, Row{Cells: cells, Miss: strings.Join(miss, "; ")})
}

// Misses lists every row that misses its model, one line each.
func (t *Table) Misses() []string {
	var out []string
	for _, r := range t.Rows {
		if r.Miss != "" {
			out = append(out, fmt.Sprintf("%s [%s]: %s", t.Title, strings.Join(r.Cells, " | "), r.Miss))
		}
	}
	return out
}

// Fprint renders the table with a verdict column.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", t.Title, t.Note)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  %s\tverdict\n", strings.Join(t.Columns, "\t"))
	for _, r := range t.Rows {
		verdict := "ok"
		if r.Miss != "" {
			verdict = "MISS: " + r.Miss
		}
		fmt.Fprintf(tw, "  %s\t%s\n", strings.Join(r.Cells, "\t"), verdict)
	}
	tw.Flush()
}

// PaperTables runs E1–E7 in order.
func PaperTables() ([]*Table, error) {
	var out []*Table
	for _, run := range []func() (*Table, error){E1, E2, E3, E4, E5, E6, E7} {
		t, err := run()
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// span is the range a latency covers over a scenario's trials.
type span struct{ lo, hi time.Duration }

func msCell(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond)) }

// cells renders a span in ms and in multiples of t.
func (s span) cells(t time.Duration) (ms, inT string) {
	tCell := func(d time.Duration) string { return fmt.Sprintf("%.2ft", float64(d)/float64(t)) }
	if s.lo == s.hi {
		return msCell(s.hi), tCell(s.hi)
	}
	return msCell(s.lo) + "-" + msCell(s.hi), tCell(s.lo) + "-" + tCell(s.hi)
}

// lat is one measured latency and its model: exactly k·t, or with
// atLeast k·t or more.
type lat struct {
	name    string
	s       span
	k       int
	atLeast bool
}

func (l lat) model() string {
	m := fmt.Sprintf("%dt", l.k)
	switch l.k {
	case 0:
		m = "0"
	case 1:
		m = "t"
	}
	if l.atLeast {
		m = ">= " + m
	}
	return m
}

// miss says how l is off its model at delay t ("" when it is on it).
func (l lat) miss(t time.Duration) string {
	want := time.Duration(l.k) * t
	if l.s.lo == want && l.s.hi == want || l.atLeast && l.s.lo >= want {
		return ""
	}
	_, inT := l.s.cells(t)
	return fmt.Sprintf("%s %s, model %s", l.name, inT, l.model())
}

// latRow appends a row of labels followed by each latency in ms and in
// multiples of t, next to its model.
func (t *Table) latRow(dt time.Duration, labels []string, ls ...lat) {
	cells, miss := slices.Clone(labels), []string(nil)
	for _, l := range ls {
		ms, inT := l.s.cells(dt)
		cells = append(cells, ms, inT, l.model())
		if m := l.miss(dt); m != "" {
			miss = append(miss, m)
		}
	}
	t.add(miss, cells...)
}

// newNet returns a lock-step driver and a jitter-free network on its
// virtual clock with one-way delay t.
func newNet(t time.Duration) (*lockstep, *transport.Network) {
	l := &lockstep{clock: NewClock()}
	return l, transport.NewNetwork(transport.Config{Latency: t, Clock: l.clock})
}

// cluster is one scenario topology: engine sites 1..n on a newNet.
type cluster struct {
	*lockstep
	net   *transport.Network
	sites []*engine.Site // sites[i] is site i; sites[0] is unused
}

func newCluster(n int, t time.Duration) (*cluster, error) {
	c := &cluster{sites: make([]*engine.Site, n+1)}
	c.lockstep, c.net = newNet(t)
	for i := 1; i <= n; i++ {
		ep, err := c.net.Endpoint(vtime.SiteID(i))
		if err != nil {
			c.close()
			return nil, err
		}
		c.sites[i] = engine.NewSite(ep, engine.Options{Scheduler: c.clock})
		c.sites[i].Start()
		c.members = append(c.members, c.sites[i])
	}
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.sites[1:] {
		if s != nil {
			s.Stop()
		}
	}
	c.net.Close()
}

// share creates an Int named name at every listed site and joins each
// into the first one's replica relationship, so the first site anchors
// the graph and hosts the primary copy. It returns the refs indexed by
// site once every listed site sees the whole graph and the clock has
// drained.
func (c *cluster) share(name string, order ...int) ([]engine.ObjRef, error) {
	refs := make([]engine.ObjRef, len(c.sites))
	anchor := order[0]
	for _, i := range order {
		r, err := c.sites[i].CreateObject(engine.KindInt, name, int64(0))
		if err != nil {
			return nil, fmt.Errorf("sim: create %s at S%d: %w", name, i, err)
		}
		refs[i] = r
		if i == anchor {
			continue
		}
		join := &pendingTxn{h: c.sites[i].JoinObject(r, vtime.SiteID(anchor), refs[anchor].ID())}
		if err := c.until("join decision", join.poll); err != nil {
			return nil, err
		}
		if !join.res.Committed {
			return nil, fmt.Errorf("sim: join %s from S%d: %+v", name, i, join.res)
		}
	}
	err := c.until(name+" graph converged", func() bool {
		for _, i := range order {
			if got, err := c.sites[i].ReplicaSites(refs[i]); err != nil || len(got) != len(order) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return refs, c.drain()
}

// measure runs trials rounds. Each starts at a quiescent instant, after
// draining the clock when idle is set (a GVT ring never idles); start
// acts and returns the conditions to time. It returns, per condition,
// the span over the rounds of the virtual time until it first held.
func (l *lockstep) measure(idle bool, start func(trial int64) []func() bool) ([]span, error) {
	var out []span
	for trial := int64(1); trial <= trials; trial++ {
		if idle {
			if err := l.drain(); err != nil {
				return nil, err
			}
		}
		t0, conds := l.clock.Now(), start(trial)
		if out == nil {
			out = make([]span, len(conds))
		}
		met := make([]bool, len(conds))
		err := l.until("measurement", func() bool {
			for i, cond := range conds {
				if !met[i] && cond() {
					met[i] = true
					d := l.clock.Now() - t0
					if trial == 1 || d < out[i].lo {
						out[i].lo = d
					}
					out[i].hi = max(out[i].hi, d)
				}
			}
			return !slices.Contains(met, false)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// committed reports whether site's committed value of every ref is want.
func (c *cluster) committed(site int, want int64, refs ...engine.ObjRef) func() bool {
	return func() bool {
		for _, r := range refs {
			if v, err := c.sites[site].ReadCommitted(r); err != nil || v != want {
				return false
			}
		}
		return true
	}
}

func (p *pendingTxn) committed() bool { return p.poll() && p.res.Committed }

// fired reports whether ch has delivered a value or is closed.
func fired[T any](ch <-chan T) func() bool {
	return func() bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
}

// write is a transaction blind-writing v to every ref.
func write(v int64, refs ...engine.ObjRef) *engine.Txn {
	return &engine.Txn{Name: "write", Execute: func(tx *engine.Tx) error {
		for _, r := range refs {
			if err := tx.Write(r, v); err != nil {
				return err
			}
		}
		return nil
	}}
}

// increment is a transaction adding one to every ref by a
// read-modify-write.
func increment(refs ...engine.ObjRef) *engine.Txn {
	return &engine.Txn{Name: "increment", Execute: func(tx *engine.Tx) error {
		for _, r := range refs {
			v, err := tx.Read(r)
			if err != nil {
				return err
			}
			cur, _ := v.(int64)
			if err := tx.Write(r, cur+1); err != nil {
				return err
			}
		}
		return nil
	}}
}

// seenView holds the value of one Int in a view's newest notification.
// Callbacks run on the site's notifier, which Quiescent covers, so it is
// current at every quiescent point.
type seenView struct{ newest atomic.Int64 }

// attach attaches a view of refs at site that watches refs[0].
func (c *cluster) attach(site int, mode engine.ViewMode, refs ...engine.ObjRef) (*seenView, error) {
	v := &seenView{}
	_, err := c.sites[site].AttachView(refs, mode, engine.ViewFuncs{Update: func(d engine.SnapshotData) {
		n, _ := d.Values[refs[0].ID()].(int64)
		v.newest.Store(n)
	}})
	return v, err
}

func (v *seenView) shows(want int64) func() bool {
	return func() bool { return v.newest.Load() == want }
}

// e1Case is one primary placement of §5.1.1 with its model, in
// multiples of t, at the origin (site 2) and at an observer (site 4)
// that is neither origin nor primary.
type e1Case struct {
	name, short    string
	objects        [][]int // per object, the sites sharing it, primary first
	origin, remote int
}

var e1Cases = []e1Case{
	// Two objects with distinct remote primaries: no delegation.
	{"remote primaries", "rp", [][]int{{1, 2, 3, 4}, {3, 1, 2, 4}}, 2, 3},
	{"primary at origin", "po", [][]int{{2, 1, 3, 4}, {2, 1, 3, 4}}, 0, 1},
	// One object, so one remote primary: the delegated commit.
	{"single remote primary", "srp", [][]int{{1, 2, 3, 4}}, 2, 2},
}

// runE1 measures an e1Case's commit latency at the origin and at the
// observer.
func runE1(ec e1Case, t time.Duration) ([]lat, error) {
	c, err := newCluster(4, t)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var atOrigin, atRemote []engine.ObjRef
	for k, order := range ec.objects {
		refs, err := c.share(fmt.Sprintf("o%d", k), order...)
		if err != nil {
			return nil, err
		}
		atOrigin, atRemote = append(atOrigin, refs[2]), append(atRemote, refs[4])
	}
	s, err := c.measure(true, func(trial int64) []func() bool {
		p := &pendingTxn{h: c.sites[2].Submit(write(trial, atOrigin...))}
		return []func() bool{p.committed, c.committed(4, trial, atRemote...)}
	})
	if err != nil {
		return nil, err
	}
	return []lat{{name: "origin", s: s[0], k: ec.origin}, {name: "remote", s: s[1], k: ec.remote}}, nil
}

// E1 reproduces §5.1.1: a transaction commits in 2t at its origin and
// 3t elsewhere; at once (and in t elsewhere) when its one primary is the
// origin; in 2t everywhere through the delegated commit when it has a
// single remote primary.
func E1() (*Table, error) {
	tab := &Table{
		Title:   "E1: transaction commit latency (paper 5.1.1)",
		Note:    fmt.Sprintf("t = %s; origin site 2, observer site 4 (neither origin nor primary); %d trials, every one gated", paperT, trials),
		Columns: []string{"scenario", "origin (ms)", "origin", "model", "remote (ms)", "remote", "model"},
	}
	for _, ec := range e1Cases {
		ls, err := runE1(ec, paperT)
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", ec.name, err)
		}
		tab.latRow(paperT, []string{ec.name}, ls...)
	}
	return tab, nil
}

// runE2 measures §5.1.2's view notification latency: objects a and b
// with distinct primaries (sites 1 and 3), a read-modify-write of both
// at site 2, and an optimistic and a pessimistic view of both at the
// origin and at site 4.
func runE2(t time.Duration) ([]lat, error) {
	c, err := newCluster(4, t)
	if err != nil {
		return nil, err
	}
	defer c.close()
	a, err := c.share("a", 1, 2, 3, 4)
	if err != nil {
		return nil, err
	}
	b, err := c.share("b", 3, 1, 2, 4)
	if err != nil {
		return nil, err
	}
	var views []*seenView
	for _, site := range []int{2, 4} {
		for _, mode := range []engine.ViewMode{engine.Optimistic, engine.Pessimistic} {
			v, err := c.attach(site, mode, a[site], b[site])
			if err != nil {
				return nil, err
			}
			views = append(views, v)
		}
	}
	s, err := c.measure(true, func(trial int64) []func() bool {
		c.sites[2].Submit(increment(a[2], b[2]))
		conds := make([]func() bool, len(views))
		for i, v := range views {
			conds[i] = v.shows(trial)
		}
		return conds
	})
	if err != nil {
		return nil, err
	}
	return []lat{
		{name: "opt@origin", s: s[0], k: 0},
		{name: "pess@origin", s: s[1], k: 2},
		{name: "opt@remote", s: s[2], k: 1},
		{name: "pess@remote", s: s[3], k: 3},
	}, nil
}

// E2 reproduces §5.1.2: an optimistic view sees an update at once at
// its origin and in t elsewhere; a pessimistic view in 2t at the origin
// and 3t elsewhere.
func E2() (*Table, error) {
	tab := &Table{
		Title:   "E2: view notification latency (paper 5.1.2)",
		Note:    fmt.Sprintf("t = %s; read-modify-write at site 2 of two objects with distinct remote primaries; views at site 2 and site 4; %d trials", paperT, trials),
		Columns: []string{"view", "ms", "measured", "model"},
	}
	ls, err := runE2(paperT)
	if err != nil {
		return nil, fmt.Errorf("E2: %w", err)
	}
	for _, l := range ls {
		tab.latRow(paperT, []string{l.name}, l)
	}
	return tab, nil
}

// E3 reproduces the first §5.2.2 benchmark ("observed latencies closely
// matched the analytical expectations") as a sweep of t over E1 and E2:
// every measured/model ratio must be exactly 1.00, and every zero model
// exactly 0.
func E3() (*Table, error) {
	tab := &Table{
		Title: "E3: measured/model ratio of E1 and E2 across induced delays (paper 5.2.2)",
		Note:  "E1: rp = remote primaries, po = primary at origin, srp = single remote primary, o/r = origin/remote commit; then E2's views",
	}
	for _, t := range sweepT {
		var ls []lat
		for _, ec := range e1Cases {
			e1, err := runE1(ec, t)
			if err != nil {
				return nil, fmt.Errorf("E3 t=%s %s: %w", t, ec.name, err)
			}
			for _, l := range e1 {
				l.name = ec.short + " " + l.name[:1]
				ls = append(ls, l)
			}
		}
		e2, err := runE2(t)
		if err != nil {
			return nil, fmt.Errorf("E3 t=%s: %w", t, err)
		}
		tab.Columns = []string{"t (ms)"}
		row, miss := []string{msCell(t)}, []string(nil)
		for _, l := range append(ls, e2...) {
			if l.k == 0 {
				tab.Columns = append(tab.Columns, l.name+"=0")
				row = append(row, msCell(l.s.hi))
			} else {
				tab.Columns = append(tab.Columns, l.name+"/"+l.model())
				row = append(row, fmt.Sprintf("%.2f", float64(l.s.hi)/float64(time.Duration(l.k)*t)))
			}
			if m := l.miss(t); m != "" {
				miss = append(miss, m)
			}
		}
		tab.add(miss, row...)
	}
	return tab, nil
}

// load is the outcome of one two-party Poisson workload.
type load struct {
	commits, aborts, notified, lost, inconsistencies uint64
	// final is the committed value both sites converged on.
	final int64
}

// runLoad runs two parties, sites 1 and 2, each with an optimistic view
// of one shared Int x (primary at site 1). Party i submits txn(i, x at
// i, n) at the n-th arrival of a Poisson process of rates[i-1] per
// virtual second, for length.
func runLoad(t time.Duration, rates [2]float64, length time.Duration, txn func(site int, x engine.ObjRef, n int64) *engine.Txn) (r load, err error) {
	c, err := newCluster(2, t)
	if err != nil {
		return r, err
	}
	defer c.close()
	x, err := c.share("x", 1, 2)
	if err != nil {
		return r, err
	}
	for site := 1; site <= 2; site++ {
		if _, err := c.attach(site, engine.Optimistic, x[site]); err != nil {
			return r, err
		}
	}
	if err := c.drain(); err != nil {
		return r, err
	}
	var before [3]engine.Stats
	var pending []*pendingTxn
	for site := 1; site <= 2; site++ {
		before[site] = c.sites[site].Stats()
		rng := rand.New(rand.NewSource(loadSeed + int64(site)))
		var at time.Duration
		for n := int64(1); ; n++ {
			at += time.Duration(rng.ExpFloat64() / rates[site-1] * float64(time.Second))
			if at >= length {
				break
			}
			c.clock.AfterFunc(at, func() {
				pending = append(pending, &pendingTxn{h: c.sites[site].Submit(txn(site, x[site], n))})
			})
		}
	}
	if err := c.drain(); err != nil {
		return r, err
	}
	for _, p := range pending {
		if !p.poll() {
			return r, fmt.Errorf("sim: transaction undecided after the run drained")
		}
	}
	for site := 1; site <= 2; site++ {
		st, b := c.sites[site].Stats(), before[site]
		r.commits += st.Commits - b.Commits
		r.aborts += st.ConflictAborts - b.ConflictAborts
		r.notified += st.OptNotifications - b.OptNotifications
		r.lost += st.LostUpdates - b.LostUpdates
		r.inconsistencies += st.UpdateInconsistencies - b.UpdateInconsistencies
		v, err := c.sites[site].ReadCommitted(x[site])
		if err != nil {
			return r, err
		}
		if n, _ := v.(int64); site == 1 {
			r.final = n
		} else if n != r.final {
			return r, fmt.Errorf("sim: committed values diverged: S1 %d, S2 %d", r.final, n)
		}
	}
	return r, nil
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// E4 reproduces the second §5.2.2 benchmark: two parties blind-writing
// one object never abort, and their optimistic views lose few updates,
// "below 20.1 percent" at one update per second from both parties.
func E4() (*Table, error) {
	tab := &Table{
		Title: "E4: lost updates under two-party blind-write load (paper 5.2.2)",
		Note: "both parties write at the given rate (Poisson), 600 updates each on average; rates sweep at t = 10 ms (lost% depends on rate x t only);\n" +
			"gates: 0 aborts in every row, lost% < 20.1 at 1/s",
		Columns: []string{"t (ms)", "rate (/s/party)", "updates", "notified", "lost", "lost%", "aborts"},
	}
	for _, t := range loadT {
		rates := []float64{1}
		if t == loadT[0] {
			rates = []float64{1, 5, 20, 50}
		}
		for _, rate := range rates {
			r, err := runLoad(t, [2]float64{rate, rate}, time.Duration(float64(loadSpan)/rate),
				func(site int, x engine.ObjRef, n int64) *engine.Txn { return write(2*n+int64(site), x) })
			if err != nil {
				return nil, fmt.Errorf("E4 t=%s rate=%g: %w", t, rate, err)
			}
			lost := pct(r.lost, r.lost+r.notified)
			var miss []string
			if r.aborts != 0 {
				miss = append(miss, fmt.Sprintf("%d aborts, model 0", r.aborts))
			}
			if rate == 1 && lost >= 20.1 {
				miss = append(miss, fmt.Sprintf("lost %.1f%%, model < 20.1%%", lost))
			}
			tab.add(miss, msCell(t), fmt.Sprint(rate), fmt.Sprint(r.commits), fmt.Sprint(r.notified),
				fmt.Sprint(r.lost), fmt.Sprintf("%.1f%%", lost), fmt.Sprint(r.aborts))
		}
	}
	return tab, nil
}

// E5 reproduces the third §5.2.2 benchmark: party A read-modify-writes
// one object once per second; a party B at a third of that rate keeps
// rollbacks below 2%, and faster B rates make them grow. Every increment
// must survive: lost increments (commits minus the final value) are gated
// at 0.
func E5() (*Table, error) {
	tab := &Table{
		Title: "E5: rollback rate for read-write transactions (paper 5.2.2)",
		Note: fmt.Sprintf("party A at 1/s, party B at the given rate (Poisson, seed %d), %.0f virtual s per row;\n"+
			"gates: rollback%% < 2 at B = 1/3 and t = 10 ms, rollback%% at B = 4 above B = 1/3 at every t, 0 lost increments",
			loadSeed, loadSpan.Seconds()),
		Columns: []string{"t (ms)", "B (/s)", "commits", "rollbacks", "rollback%", "inconsistencies", "lost increments"},
	}
	for _, t := range loadT {
		var slowest float64
		for _, b := range []float64{1.0 / 3, 1, 2, 4} {
			r, err := runLoad(t, [2]float64{1, b}, loadSpan,
				func(_ int, x engine.ObjRef, _ int64) *engine.Txn { return increment(x) })
			if err != nil {
				return nil, fmt.Errorf("E5 t=%s B=%g: %w", t, b, err)
			}
			rollbacks, lostIncs := pct(r.aborts, r.commits+r.aborts), int64(r.commits)-r.final
			var miss []string
			switch {
			case b < 1 && t == 10*time.Millisecond && rollbacks >= 2:
				miss = append(miss, fmt.Sprintf("rollbacks %.2f%%, model < 2%%", rollbacks))
			case b == 4 && rollbacks <= slowest:
				miss = append(miss, fmt.Sprintf("rollbacks %.2f%% at B = 4, not above %.2f%% at B = 1/3", rollbacks, slowest))
			}
			if b < 1 {
				slowest = rollbacks
			}
			if lostIncs != 0 {
				miss = append(miss, fmt.Sprintf("%d lost increments, model 0", lostIncs))
			}
			tab.add(miss, msCell(t), fmt.Sprintf("%.2f", b), fmt.Sprint(r.commits), fmt.Sprint(r.aborts),
				fmt.Sprintf("%.2f%%", rollbacks), fmt.Sprint(r.inconsistencies), fmt.Sprint(lostIncs))
		}
	}
	return tab, nil
}

// E6 reproduces the §5.1.3 scalability argument: in a chain of small
// overlapping replica sets ({1,2,3}, {3,4,5}, ...) a DECAF transaction
// on one set commits in 2t whatever the network size N, while a
// Jefferson-style GVT sweep over all N sites takes at least N·t.
func E6() (*Table, error) {
	tab := &Table{
		Title:   "E6: commit latency vs network size, DECAF primary copy vs GVT sweep (paper 5.1.3)",
		Note:    fmt.Sprintf("t = %s; DECAF: write on the first replica set at site 2; GVT: blind write at site 2 of a token ring over all N sites; %d trials", paperT, trials),
		Columns: []string{"N", "DECAF (ms)", "DECAF", "model", "GVT (ms)", "GVT", "model"},
	}
	for _, n := range []int{3, 5, 9, 17, 33} {
		d, err := runE6Decaf(n)
		if err != nil {
			return nil, fmt.Errorf("E6 decaf N=%d: %w", n, err)
		}
		g, err := runE6GVT(n)
		if err != nil {
			return nil, fmt.Errorf("E6 gvt N=%d: %w", n, err)
		}
		tab.latRow(paperT, []string{fmt.Sprint(n)}, lat{name: "DECAF", s: d, k: 2}, lat{name: "GVT", s: g, k: n, atLeast: true})
	}
	return tab, nil
}

func runE6Decaf(n int) (span, error) {
	c, err := newCluster(n, paperT)
	if err != nil {
		return span{}, err
	}
	defer c.close()
	var first []engine.ObjRef
	for lo := 1; lo+2 <= n; lo += 2 {
		refs, err := c.share(fmt.Sprintf("set%d", lo), lo, lo+1, lo+2)
		if err != nil {
			return span{}, err
		}
		if lo == 1 {
			first = refs
		}
	}
	s, err := c.measure(true, func(trial int64) []func() bool {
		p := &pendingTxn{h: c.sites[2].Submit(write(trial, first[2]))}
		return []func() bool{p.committed}
	})
	if err != nil {
		return span{}, err
	}
	return s[0], nil
}

// runE6GVT times blind writes at site 2 of a GVT ring of n sites. The
// token circulates for ever, so the clock never drains: each write is
// timed from wherever the token is, after one untimed write that gets
// it going.
func runE6GVT(n int) (span, error) {
	l, net := newNet(paperT)
	defer net.Close()
	ring := make([]vtime.SiteID, n)
	for i := range ring {
		ring[i] = vtime.SiteID(i + 1)
	}
	var sites []*gvt.Site
	defer func() {
		for _, s := range sites {
			s.Stop()
		}
	}()
	for _, id := range ring {
		ep, err := net.Endpoint(id)
		if err != nil {
			return span{}, err
		}
		s := gvt.NewSite(ep, ring)
		sites = append(sites, s)
		l.members = append(l.members, s)
	}
	// Start only once every member is attached: the head injects the
	// token at once, and a send to a site not yet attached is lost.
	for _, s := range sites {
		s.Start()
	}
	if err := l.until("warm-up write", fired(sites[1].Write("x", int64(0)).Done())); err != nil {
		return span{}, err
	}
	s, err := l.measure(false, func(trial int64) []func() bool {
		return []func() bool{fired(sites[1].Write("x", trial).Done())}
	})
	if err != nil {
		return span{}, err
	}
	return s[0], nil
}

// E7 reproduces the responsiveness argument of §1: a replicated site
// shows a local action at once (E2's optimistic view at the origin),
// while a client of a centralized server sees its own action only after
// the 2t echo.
func E7() (*Table, error) {
	tab := &Table{
		Title:   "E7: local responsiveness, replicated DECAF vs centralized server (paper 1)",
		Note:    fmt.Sprintf("t = %s; DECAF: E2's optimistic view at the writing site; centralized: the writer's echo; %d trials", paperT, trials),
		Columns: []string{"architecture", "ms", "measured", "model"},
	}
	e2, err := runE2(paperT)
	if err != nil {
		return nil, fmt.Errorf("E7 decaf: %w", err)
	}
	echo, err := runE7Centralized()
	if err != nil {
		return nil, fmt.Errorf("E7 centralized: %w", err)
	}
	tab.latRow(paperT, []string{"DECAF local view"}, e2[0])
	tab.latRow(paperT, []string{"centralized echo"}, lat{name: "echo", s: echo, k: 2})
	return tab, nil
}

func runE7Centralized() (span, error) {
	l, net := newNet(paperT)
	defer net.Close()
	sep, err := net.Endpoint(1)
	if err != nil {
		return span{}, err
	}
	srv := centralized.NewServer(sep, []vtime.SiteID{2})
	defer srv.Stop()
	cep, err := net.Endpoint(2)
	if err != nil {
		return span{}, err
	}
	client := centralized.NewClient(cep, 1)
	defer client.Stop()
	l.members = []member{srv, client}
	s, err := l.measure(true, func(trial int64) []func() bool {
		return []func() bool{fired(client.Write("x", trial))}
	})
	if err != nil {
		return span{}, err
	}
	return s[0], nil
}
