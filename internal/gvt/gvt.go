// Package gvt implements the baseline commit protocol DECAF is compared
// against (paper §5.1.3, §6): optimistic update propagation with commit
// driven by a Jefferson-style Global Virtual Time sweep, as in Time Warp,
// ORESTE, and COAST.
//
// Every site replicates every register (the COAST assumption). Writes
// apply optimistically everywhere, but a value may only be shown to a
// pessimistic observer — i.e. commit — once a global sweep proves no
// straggler below its virtual time can exist anywhere. The sweep is a
// token circulating all sites: commit latency is therefore proportional
// to the size of the network, which is precisely the property the DECAF
// primary-copy protocol avoids.
package gvt

import (
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Pending tracks a submitted write until it commits.
type Pending struct {
	done chan vtime.VT
}

// Done delivers the write's commit VT once its updates are committed at
// the originating site (GVT passed its VT).
func (p *Pending) Done() <-chan vtime.VT { return p.done }

// entry is one uncommitted update.
type entry struct {
	vt      vtime.VT
	name    string
	value   any
	origin  vtime.SiteID
	acksDue int // writer-side: peers that have not acknowledged yet
	pending *Pending
}

// Site is one member of a GVT-committed replicated register group. It
// runs no goroutine: its driver (internal/sim) calls Step, and every
// method, from one goroutine.
type Site struct {
	id    vtime.SiteID
	clock *vtime.Clock
	ep    transport.Endpoint
	ring  []vtime.SiteID // all members in token order

	committed   map[string]any
	uncommitted []*entry // sorted by VT
	gvt         vtime.VT
	tokenSeen   uint64
	onCommit    func(name string, value any, vt vtime.VT)
}

// NewSite creates a group member. ring lists every member in token order
// (identical at all sites); the first member injects the token.
func NewSite(ep transport.Endpoint, ring []vtime.SiteID) *Site {
	return &Site{
		id:        ep.Site(),
		clock:     vtime.NewClock(ep.Site()),
		ep:        ep,
		ring:      append([]vtime.SiteID(nil), ring...),
		committed: map[string]any{},
	}
}

// OnCommit registers a callback invoked whenever an update commits at
// this site — the analogue of a pessimistic view notification.
func (s *Site) OnCommit(fn func(name string, value any, vt vtime.VT)) {
	s.onCommit = fn
}

// Start injects the sweep token at the ring's first member; call it on
// every member once all of them are attached.
func (s *Site) Start() {
	if len(s.ring) > 1 && s.ring[0] == s.id {
		// Inject via handleToken so the head contributes its own
		// minimum to round 1.
		s.handleToken(wire.GVTToken{Round: 1})
	}
}

// Step handles every message already delivered to the site and reports
// whether there was any. A GVT group never goes quiet for long: the
// sweep token circulates for ever, so a driver bounds its runs by step
// count rather than by draining the clock.
func (s *Site) Step() bool {
	worked := false
	for {
		select {
		case ev, ok := <-s.ep.Events():
			if !ok {
				return worked
			}
			worked = true
			if ev.Kind == transport.EventMessage {
				s.clock.Observe(ev.SentAt)
				s.handle(ev.From, ev.Msg)
			}
		default:
			return worked
		}
	}
}

// Write submits a blind write of a shared register.
func (s *Site) Write(name string, value any) *Pending {
	p := &Pending{done: make(chan vtime.VT, 1)}
	vt := s.clock.Next()
	e := &entry{vt: vt, name: name, value: value, origin: s.id, pending: p}
	for _, peer := range s.ring {
		if peer == s.id {
			continue
		}
		e.acksDue++
		_ = s.ep.Send(peer, s.clock.Now(), wire.GVTUpdate{VT: vt, Name: name, Value: value})
	}
	s.insert(e)
	if len(s.ring) <= 1 {
		// Degenerate single-member group: no sweep needed.
		s.gvt = vt
	}
	s.tryCommit()
	return p
}

// ReadCommitted returns the committed value of a register.
func (s *Site) ReadCommitted(name string) any { return s.committed[name] }

// GVT returns the site's current global-virtual-time estimate.
func (s *Site) GVT() vtime.VT { return s.gvt }

// insert keeps the uncommitted list sorted by VT.
func (s *Site) insert(e *entry) {
	i := len(s.uncommitted)
	for i > 0 && e.vt.Less(s.uncommitted[i-1].vt) {
		i--
	}
	s.uncommitted = append(s.uncommitted, nil)
	copy(s.uncommitted[i+1:], s.uncommitted[i:])
	s.uncommitted[i] = e
}

func (s *Site) handle(from vtime.SiteID, msg wire.Message) {
	switch m := msg.(type) {
	case wire.GVTUpdate:
		s.insert(&entry{vt: m.VT, name: m.Name, value: m.Value, origin: from})
		_ = s.ep.Send(from, s.clock.Now(), wire.GVTAck{VT: m.VT})
		s.tryCommit()
	case wire.GVTAck:
		for _, e := range s.uncommitted {
			if e.vt == m.VT && e.origin == s.id && e.acksDue > 0 {
				e.acksDue--
			}
		}
	case wire.GVTToken:
		s.handleToken(m)
	}
}

// handleToken contributes this site's minimum uncommitted VT and passes
// the token on; a completed round establishes a new GVT.
func (s *Site) handleToken(tok wire.GVTToken) {
	if tok.Round <= s.tokenSeen {
		return // stale duplicate
	}
	s.tokenSeen = tok.Round

	// Adopt the sweep's last result.
	if s.gvt.Less(tok.GVT) {
		s.gvt = tok.GVT
		s.tryCommit()
	}

	// Contribute the minimum over IN-FLIGHT work: own writes not yet
	// acknowledged by every peer. (Once all acks are in, the update is
	// applied everywhere, so it no longer holds the sweep down; fully
	// replicated entries then commit as GVT passes them. A remote entry
	// never needs contributing: while any site lacks it, its writer is
	// still holding the minimum.)
	for _, e := range s.uncommitted {
		if e.origin != s.id || e.acksDue == 0 {
			continue
		}
		if !tok.MinValid || e.vt.Less(tok.Min) {
			tok.Min, tok.MinValid = e.vt, true
		}
	}

	s.forwardToken(tok)
}

// forwardToken sends the token to the ring successor; when this site is
// the ring head, the round completes and its minimum becomes the GVT
// carried by the next round.
func (s *Site) forwardToken(tok wire.GVTToken) {
	idx := 0
	for i, id := range s.ring {
		if id == s.id {
			idx = i
			break
		}
	}
	next := s.ring[(idx+1)%len(s.ring)]
	if next == s.ring[0] {
		// Round completes at the head: its accumulated minimum bounds
		// every uncommitted VT in the system, so everything strictly
		// below it may commit.
		newGVT := s.clock.Now()
		if tok.MinValid {
			newGVT = vtime.JustBelow(tok.Min)
		}
		tok = wire.GVTToken{Round: tok.Round + 1, GVT: newGVT}
	}
	_ = s.ep.Send(next, s.clock.Now(), tok)
}

// tryCommit commits every uncommitted entry at or below the GVT, in VT
// order.
func (s *Site) tryCommit() {
	kept := s.uncommitted[:0]
	for _, e := range s.uncommitted {
		if !e.vt.LessEq(s.gvt) || (e.origin == s.id && e.acksDue > 0) {
			kept = append(kept, e)
			continue
		}
		s.committed[e.name] = e.value
		if s.onCommit != nil {
			s.onCommit(e.name, e.value, e.vt)
		}
		if e.pending != nil {
			select {
			case e.pending.done <- e.vt:
			default:
			}
		}
	}
	s.uncommitted = kept
}
