package engine

import "decaf/internal/vtime"

// outcomeTable retains the summary outcome of every transaction this site
// has decided or heard decided, so that late update messages are treated
// correctly (paper §3.1). It answers exactly as a map[vtime.VT]bool
// would: a later set replaces an earlier one, and nothing is forgotten.
//
// A VT is keyed by its origin and the page of its Lamport time; a page
// holds one slot per time. An origin's pages cost at most about one byte
// per tick of the clock, whatever its traffic: on the benchmark's
// workloads an outcome costs under 3 B, against ~47 B as a map entry,
// and an origin that commits less than once per page costs one page,
// ~300 B, per outcome (DESIGN.md §6). A page is the unit a floor-based
// pruning can later drop whole.
//
// Loop-confined, like the rest of the transaction state.
type outcomeTable struct {
	pages map[outcomeKey]*outcomePage
	n     int // decided slots across all pages
}

const (
	outcomePageBits = 8
	outcomePageSize = 1 << outcomePageBits
)

// outcomeSlot is one transaction's entry: unknown, aborted or committed.
type outcomeSlot uint8

const (
	outcomeUnknown outcomeSlot = iota
	outcomeAborted
	outcomeCommitted
)

type outcomeKey struct {
	origin vtime.SiteID
	page   uint64
}

type outcomePage [outcomePageSize]outcomeSlot

// page returns vt's page and vt's slot index in it, creating the page
// when create is set; nil when it does not exist and create is not set.
func (t *outcomeTable) page(vt vtime.VT, create bool) (*outcomePage, uint64) {
	k := outcomeKey{origin: vt.Site, page: vt.Time >> outcomePageBits}
	i := vt.Time & (outcomePageSize - 1)
	p := t.pages[k]
	if p == nil && create {
		if t.pages == nil {
			t.pages = map[outcomeKey]*outcomePage{}
		}
		p = new(outcomePage)
		t.pages[k] = p
	}
	return p, i
}

// get returns vt's outcome and whether one is recorded.
func (t *outcomeTable) get(vt vtime.VT) (committed, decided bool) {
	p, i := t.page(vt, false)
	if p == nil {
		return false, false
	}
	switch p[i] {
	case outcomeCommitted:
		return true, true
	case outcomeAborted:
		return false, true
	}
	return false, false
}

// set records vt's outcome, replacing any earlier one.
func (t *outcomeTable) set(vt vtime.VT, committed bool) {
	p, i := t.page(vt, true)
	if p[i] == outcomeUnknown {
		t.n++
	}
	p[i] = outcomeAborted
	if committed {
		p[i] = outcomeCommitted
	}
}

// len returns the number of recorded outcomes.
func (t *outcomeTable) len() int { return t.n }

// pageCount returns the number of pages allocated.
func (t *outcomeTable) pageCount() int { return len(t.pages) }
