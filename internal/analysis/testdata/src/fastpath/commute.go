// Package fastpath is a fixture exercising the fastpath analyzer: this
// file is named commute.go, so every function in it is fast-path code
// and must not call the reservation/confirm machinery.
package fastpath

type reservations struct{}

func (reservations) Reserve(lo, hi uint64)           {}
func (reservations) Conflicts(vt uint64) bool        { return false }
func (reservations) Intersecting(vt uint64) []uint64 { return nil }

type site struct{ res reservations }

func (s *site) propagate()                    {}
func (s *site) checkAtPrimary(vt uint64) bool { return true }

func (s *site) badReserve() {
	s.res.Reserve(1, 2)
}

func (s *site) badCheckThenPropagate() bool {
	if !s.checkAtPrimary(7) {
		return false
	}
	s.propagate()
	return true
}

func (s *site) badConflicts() bool {
	return s.res.Conflicts(9)
}

func (s *site) goodDemotionSweep() []uint64 {
	// Read-only inspection of the reservation table is allowed: guess
	// demotion needs it, and it never reserves or round-trips.
	return s.res.Intersecting(3)
}

func (s *site) suppressed() {
	//decaf:ignore fastpath fixture demonstrating the ignore directive
	s.res.Reserve(4, 5)
}
