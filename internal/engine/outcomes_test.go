package engine

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"decaf/internal/obs"
	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// TestOutcomeTableMatchesMap checks the paged outcome table against the
// plain map it replaced, on random sets and gets that cross page edges,
// reach the top of the Lamport time range, spread over several origins
// and overwrite earlier outcomes.
func TestOutcomeTableMatchesMap(t *testing.T) {
	times := []uint64{0, 1, outcomePageSize - 1, outcomePageSize, outcomePageSize + 1,
		2*outcomePageSize - 1, 4095, 4096, 4097, 8191, 8192, 1 << 40,
		math.MaxUint64 - outcomePageSize, math.MaxUint64 - 1, math.MaxUint64}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randVT := func() vtime.VT {
			vt := vtime.VT{Site: vtime.SiteID(rng.Intn(4))}
			if rng.Intn(3) == 0 {
				vt.Time = times[rng.Intn(len(times))] + uint64(rng.Intn(3)) - 1
			} else {
				vt.Time = uint64(rng.Intn(3 * outcomePageSize))
			}
			return vt
		}
		var tbl outcomeTable
		want := map[vtime.VT]bool{}
		var keys []vtime.VT
		for op := 0; op < 3000; op++ {
			vt := randVT()
			if len(keys) > 0 && rng.Intn(4) == 0 {
				vt = keys[rng.Intn(len(keys))] // overwrite, or re-read
			}
			if rng.Intn(2) == 0 {
				committed := rng.Intn(2) == 0
				if _, ok := want[vt]; !ok {
					keys = append(keys, vt)
				}
				want[vt] = committed
				tbl.set(vt, committed)
			}
			gotC, gotOK := tbl.get(vt)
			wantC, wantOK := want[vt]
			if gotC != wantC || gotOK != wantOK {
				t.Fatalf("seed %d op %d: get(%v) = (%v, %v), map has (%v, %v)", seed, op, vt, gotC, gotOK, wantC, wantOK)
			}
			if tbl.len() != len(want) {
				t.Fatalf("seed %d op %d: len = %d, map has %d", seed, op, tbl.len(), len(want))
			}
		}
		for _, vt := range keys {
			if c, ok := tbl.get(vt); !ok || c != want[vt] {
				t.Fatalf("seed %d: final get(%v) = (%v, %v), want (%v, true)", seed, vt, c, ok, want[vt])
			}
		}
	}
}

// TestOutcomeTablePagesAreDense pins the table's size: one origin's
// consecutive Lamport times share pages of outcomePageSize slots, and an
// origin that decides less than once per page costs a page per outcome,
// never more.
func TestOutcomeTablePagesAreDense(t *testing.T) {
	var tbl outcomeTable
	for i := uint64(0); i < 3*outcomePageSize; i++ {
		tbl.set(vtime.VT{Time: i, Site: 1}, i%2 == 0)
	}
	if tbl.len() != 3*outcomePageSize || tbl.pageCount() != 3 {
		t.Fatalf("len %d over %d pages, want %d over 3", tbl.len(), tbl.pageCount(), 3*outcomePageSize)
	}
	for i := uint64(0); i < 5; i++ {
		tbl.set(vtime.VT{Time: 7 + i*(outcomePageSize+1), Site: 2}, true)
	}
	if tbl.len() != 3*outcomePageSize+5 || tbl.pageCount() != 3+5 {
		t.Fatalf("sparse origin: len %d over %d pages, want %d over 8", tbl.len(), tbl.pageCount(), 3*outcomePageSize+5)
	}
}

// TestOutcomeGaugesTrackTable checks that the exported gauges read the
// outcome table's size once the loop has finished a batch.
func TestOutcomeGaugesTrackTable(t *testing.T) {
	o := obs.New()
	h := newHarnessOpts(t, 1, transport.Config{}, Options{Observer: o})
	s := h.site(1)
	ref, err := s.CreateObject(KindInt, "x", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 5; k++ {
		if res := h.setInt(1, ref, k); !res.Committed {
			t.Fatalf("write %d: %+v", k, res)
		}
	}
	reg := o.Metrics()
	h.eventually(time.Second, "gauges matching the table", func() bool {
		var n, pages int
		if err := s.call(func() { n, pages = s.outcomes.len(), s.outcomes.pageCount() }); err != nil {
			t.Fatal(err)
		}
		retained, _ := reg.Value("decaf_engine_outcomes_retained")
		allocated, _ := reg.Value("decaf_engine_outcome_pages")
		return n >= 5 && pages >= 1 && int(retained) == n && int(allocated) == pages
	})
}
