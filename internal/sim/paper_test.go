package sim

import (
	"strings"
	"testing"
	"time"
)

// TestPaperSection5 gates the paper's §5 claims in virtual time: every
// row of E1–E7 must land on its model (exact multiples of t for the
// latency experiments, the paper's thresholds for the load
// experiments; E5 also gates 0 lost increments).
func TestPaperSection5(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows int
		run  func() (*Table, error)
	}{
		{"E1", 3, E1},
		{"E2", 4, E2},
		{"E3", len(sweepT), E3},
		{"E4", 3 + len(loadT), E4},
		{"E5", 4 * len(loadT), E5},
		{"E6", 5, E6},
		{"E7", 2, E7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			tab.Fprint(&b)
			t.Log(b.String())
			if len(tab.Rows) != tc.rows {
				t.Errorf("%d rows, want %d", len(tab.Rows), tc.rows)
			}
			for _, m := range tab.Misses() {
				t.Error(m)
			}
		})
	}
}

// TestGVTCommitLatencyGrowsWithRingSize pins the defining property of
// the GVT baseline (paper §5.1.3) on its own: a commit waits for a
// sweep proportional to the network size. On the virtual clock a hop
// costs exactly t, so an n-ring commit takes at least n·t and the
// 8-ring is slower than the 2-ring in every trial.
func TestGVTCommitLatencyGrowsWithRingSize(t *testing.T) {
	var small span
	for _, n := range []int{2, 8} {
		s, err := runE6GVT(n)
		if err != nil {
			t.Fatal(err)
		}
		if floor := time.Duration(n) * paperT; s.lo < floor {
			t.Errorf("n=%d: commit in %v, want >= %v", n, s.lo, floor)
		}
		if n == 2 {
			small = s
		} else if s.lo <= small.hi {
			t.Errorf("commit latency did not grow with ring size: n=2 up to %v, n=8 from %v", small.hi, s.lo)
		}
	}
}
