package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"decaf"
)

// Quick-configuration smoke tests: every experiment driver must run and
// produce a well-formed table whose measurements are in the physically
// plausible range. (The full sweeps live in cmd/decaf-bench; these keep
// the harness itself honest.)

func quickLatencyCfg() LatencyConfig {
	return LatencyConfig{Delays: []time.Duration{4 * time.Millisecond}, Trials: 2}
}

func checkTable(t *testing.T, tab *Table, wantRows int) {
	t.Helper()
	if tab == nil {
		t.Fatal("nil table")
	}
	if len(tab.Rows) != wantRows {
		t.Fatalf("table %q has %d rows, want %d", tab.Title, len(tab.Rows), wantRows)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row width %d != %d columns", len(row), len(tab.Columns))
		}
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if !strings.Contains(buf.String(), tab.Title) {
		t.Fatal("printed table missing title")
	}
}

func TestE1Smoke(t *testing.T) {
	tab, err := E1CommitLatency(quickLatencyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 3) // three scenarios x one delay
}

func TestE2E3Smoke(t *testing.T) {
	tab, err := E2ViewLatency(quickLatencyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 1)
	tab, err = E3LatencyVsDelay(quickLatencyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 1)
}

func TestE4Smoke(t *testing.T) {
	cfg := LoadConfig{Latency: 4 * time.Millisecond, Duration: 250 * time.Millisecond, Seed: 3}
	tab, err := E4LostUpdates(cfg, []float64{20})
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 1)
}

func TestE5Smoke(t *testing.T) {
	cfg := LoadConfig{Latency: 4 * time.Millisecond, Duration: 150 * time.Millisecond, Seed: 3}
	tab, err := E5Rollbacks(cfg, 20, []float64{20})
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 1)
}

func TestE6Smoke(t *testing.T) {
	cfg := ScaleConfig{Latency: 2 * time.Millisecond, Sizes: []int{3, 5}, Trials: 1}
	tab, err := E6Scalability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 2)
}

func TestE7Smoke(t *testing.T) {
	tab, err := E7Responsiveness(quickLatencyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 1)
}

func TestE8Smoke(t *testing.T) {
	tab, err := E8Ablations(quickLatencyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 1)
}

func TestE8AblationShape(t *testing.T) {
	// Each optimization must actually buy its latency: ~t for delegation
	// at the remote replica, ~2t for eager confirmation at the origin.
	const lat = 6 * time.Millisecond
	on, err := runDelegationAblation(lat, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	off, err := runDelegationAblation(lat, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if off <= on {
		t.Errorf("delegation ablation shows no cost: on %v, off %v", on, off)
	}
	eOn, err := runEagerAblation(lat, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	eOff, err := runEagerAblation(lat, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if eOff <= eOn {
		t.Errorf("eager-confirm ablation shows no cost: on %v, off %v", eOn, eOff)
	}
}

func TestE1MatchesModelShape(t *testing.T) {
	// The harness itself must reproduce the 2t commit latency within a
	// factor: with t=10ms, origin commit for a remote primary must land
	// in [2t, 3t).
	const lat = 10 * time.Millisecond
	origin, remote, err := runE1Scenario("remote-primaries", lat, 3)
	if err != nil {
		t.Fatal(err)
	}
	if origin < 2*lat || origin > 3*lat {
		t.Errorf("origin commit %v outside [2t,3t) for t=%v", origin, lat)
	}
	if remote < 3*lat || remote > 4*lat {
		t.Errorf("remote commit %v outside [3t,4t) for t=%v", remote, lat)
	}
}

func TestE6ShapeHolds(t *testing.T) {
	// DECAF's commit latency must not grow with N; the GVT baseline must.
	cfg := ScaleConfig{Latency: 2 * time.Millisecond, Sizes: nil, Trials: 2}
	small, err := runE6Decaf(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := runE6Decaf(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if large > 2*small+2*time.Millisecond {
		t.Errorf("DECAF commit grew with N: n=3 %v, n=11 %v", small, large)
	}
	gSmall, err := runE6GVT(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	gLarge, err := runE6GVT(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if gLarge <= gSmall {
		t.Errorf("GVT commit did not grow with N: n=3 %v, n=11 %v", gSmall, gLarge)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"a", "long-column"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a note", "long-column", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.50" {
		t.Errorf("ms() = %q", got)
	}
	if got := pct(1, 4); got != "25.0%" {
		t.Errorf("pct() = %q", got)
	}
	if got := pct(0, 0); got != "0.0%" {
		t.Errorf("pct(0,0) = %q", got)
	}
	samples := []time.Duration{3, 1, 2}
	if got := mean(samples); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

func TestClusterHelpers(t *testing.T) {
	c, err := newCluster(2, decaf.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	objs, err := c.joinedInts("x", 2, 1) // anchored at site 2
	if err != nil {
		t.Fatal(err)
	}
	if p := objs[1].PrimarySite(); p != 2 {
		t.Fatalf("primary = %v, want 2", p)
	}
	res := c.site(1).ExecuteFunc(func(tx *decaf.Tx) error {
		objs[1].Set(tx, 5)
		return nil
	}).Wait()
	if !res.Committed {
		t.Fatalf("txn: %+v", res)
	}
	if _, err := waitCommittedInt(objs[2], 5, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}
