// Package bench implements the measurement harness that reproduces the
// paper's evaluation (§5): the commit- and view-latency analysis (§5.1),
// the benchmark studies of lost updates and rollback rates under load
// (§5.2.2), the scalability comparison against a Global-Virtual-Time
// sweep (§5.1.3), and the responsiveness comparison against the
// centralized architecture (§1).
//
// Each experiment returns a Table whose rows mirror what the paper
// reports; cmd/decaf-bench prints them, and the repo-root benchmarks wrap
// them for `go test -bench`.
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"decaf"
	"decaf/internal/vtime"
)

// obsMu guards obsv, the optional observer instrumenting site 1 of every
// cluster the harness builds (decaf-bench -debug-addr). Counters
// accumulate across experiments; the engine/transport state sources are
// replaced as clusters come and go, so /debug/decaf/state always shows
// the experiment currently running.
var (
	obsMu sync.Mutex
	obsv  *decaf.Observer
)

// SetObserver instruments the first site of every subsequently created
// cluster with o. Pass nil to stop instrumenting.
func SetObserver(o *decaf.Observer) {
	obsMu.Lock()
	obsv = o
	obsMu.Unlock()
}

func observer() *decaf.Observer {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsv
}

// Table is one experiment's result table.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// ms formats a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// pct formats a ratio as a percentage.
func pct(num, den uint64) string {
	if den == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

// cluster is a set of DECAF sites on one simulated network.
type cluster struct {
	net   *decaf.SimNetwork
	sites []*decaf.Site
}

// newCluster builds n sites with IDs 1..n.
func newCluster(n int, cfg decaf.SimConfig) (*cluster, error) {
	c := &cluster{net: decaf.NewSimNetwork(cfg)}
	for i := 1; i <= n; i++ {
		var opts decaf.Options
		if i == 1 {
			opts.Observer = observer()
		}
		s, err := decaf.DialOptions(c.net, vtime.SiteID(i), opts)
		if err != nil {
			c.close()
			return nil, err
		}
		c.sites = append(c.sites, s)
	}
	return c, nil
}

func (c *cluster) site(i int) *decaf.Site { return c.sites[i-1] }

func (c *cluster) close() {
	for _, s := range c.sites {
		s.Close()
	}
	c.net.Close()
}

// joinedInts creates Int replicas joined across the listed site indexes
// (1-based); the first listed site anchors the relationship (hosts the
// primary copy).
func (c *cluster) joinedInts(name string, siteIdx ...int) (map[int]*decaf.Int, error) {
	out := map[int]*decaf.Int{}
	first := siteIdx[0]
	root, err := c.site(first).NewInt(name)
	if err != nil {
		return nil, err
	}
	out[first] = root
	for _, i := range siteIdx[1:] {
		o, err := c.site(i).NewInt(name)
		if err != nil {
			return nil, err
		}
		if res := c.site(i).JoinObject(o, c.site(first).ID(), root.Ref().ID()).Wait(); !res.Committed {
			return nil, fmt.Errorf("join site %d: %+v", i, res)
		}
		out[i] = o
	}
	// Wait for topology convergence before measuring.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		settled := true
		for _, i := range siteIdx {
			if len(out[i].ReplicaSites()) != len(siteIdx) {
				settled = false
			}
		}
		if settled {
			return out, nil
		}
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("topology did not settle for %s", name)
}

// waitCommittedInt polls until the object's committed value equals want,
// returning the observation time.
func waitCommittedInt(o *decaf.Int, want int64, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if o.Committed() == want {
			return time.Now(), nil
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Time{}, fmt.Errorf("value %d never committed", want)
}

// mean returns the arithmetic mean of the samples.
func mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return sum / time.Duration(len(samples))
}
