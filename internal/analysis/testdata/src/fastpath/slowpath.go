package fastpath

// The same calls are fine outside commute.go: this is the ordinary
// guessed path, where the reservation/confirm machinery belongs.

func (s *site) slowPathMayReserve() bool {
	s.res.Reserve(10, 20)
	if !s.checkAtPrimary(21) {
		return false
	}
	s.propagate()
	return !s.res.Conflicts(22)
}
