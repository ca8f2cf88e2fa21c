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
	"sync"

	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Pending tracks a submitted write until it commits.
type Pending struct {
	done chan vtime.VT
}

// Wait blocks until the write's updates are committed at the originating
// site (GVT passed its VT) and returns the commit VT.
func (p *Pending) Wait() vtime.VT { return <-p.done }

// Done returns the completion channel.
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

// Site is one member of a GVT-committed replicated register group.
type Site struct {
	id    vtime.SiteID
	clock *vtime.Clock
	ep    transport.Endpoint
	ring  []vtime.SiteID // all members in token order

	calls chan func()
	stop  chan struct{}
	done  chan struct{}

	// Loop-confined state.
	committed   map[string]any
	uncommitted []*entry // sorted by VT
	gvt         vtime.VT
	tokenSeen   uint64

	mu        sync.Mutex
	onCommit  func(name string, value any, vt vtime.VT) // guarded by mu
	startOnce sync.Once
	stopOnce  sync.Once
}

// NewSite creates a group member. ring lists every member in token order
// (identical at all sites); the first member injects the token.
func NewSite(ep transport.Endpoint, ring []vtime.SiteID) *Site {
	return &Site{
		id:        ep.Site(),
		clock:     vtime.NewClock(ep.Site()),
		ep:        ep,
		ring:      append([]vtime.SiteID(nil), ring...),
		calls:     make(chan func(), 1024),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		committed: map[string]any{},
	}
}

// OnCommit registers a callback invoked (on the event loop) whenever an
// update commits at this site — the analogue of a pessimistic view
// notification.
func (s *Site) OnCommit(fn func(name string, value any, vt vtime.VT)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onCommit = fn
}

// Start launches the event loop; the ring's first member injects the
// sweep token.
func (s *Site) Start() {
	s.startOnce.Do(func() {
		go s.loop()
		if len(s.ring) > 1 && s.ring[0] == s.id {
			// Inject via handleToken so the head contributes its own
			// minimum to round 1.
			s.do(func() { s.handleToken(wire.GVTToken{Round: 1}) })
		}
	})
}

// Stop shuts the site down.
func (s *Site) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

func (s *Site) do(fn func()) {
	select {
	case s.calls <- fn:
	case <-s.stop:
	case <-s.done:
	}
}

func (s *Site) loop() {
	defer close(s.done)
	events := s.ep.Events()
	for {
		select {
		case <-s.stop:
			return
		case fn := <-s.calls:
			fn()
		case ev, ok := <-events:
			if !ok {
				return
			}
			if ev.Kind != transport.EventMessage {
				continue
			}
			s.clock.Observe(ev.SentAt)
			s.handle(ev.Msg)
		}
	}
}

// Write submits a blind write of a shared register.
func (s *Site) Write(name string, value any) *Pending {
	p := &Pending{done: make(chan vtime.VT, 1)}
	s.do(func() {
		vt := s.clock.Next()
		e := &entry{vt: vt, name: name, value: value, origin: s.id, pending: p}
		for _, peer := range s.ring {
			if peer == s.id {
				continue
			}
			e.acksDue++
			_ = s.ep.Send(peer, s.clock.Now(), wire.GVTUpdate{VT: vt, From: s.id, Name: name, Value: value})
		}
		s.insert(e)
		if len(s.ring) <= 1 {
			// Degenerate single-member group: no sweep needed.
			s.gvt = vt
		}
		s.tryCommit()
	})
	return p
}

// ReadCommitted returns the committed value of a register.
func (s *Site) ReadCommitted(name string) any {
	var v any
	ch := make(chan struct{})
	s.do(func() {
		v = s.committed[name]
		close(ch)
	})
	select {
	case <-ch:
	case <-s.done:
	}
	return v
}

// Quiescent reports whether the site's event loop is parked over empty
// intake queues. Messages still in flight in the transport do not count
// — the deterministic simulation harness (internal/sim) owns those. A
// stopped site is quiescent. Unlike the engine, a gvt group is never
// globally quiescent for long: the sweep token circulates continuously,
// so the harness bounds gvt runs by step count rather than by draining
// the clock.
func (s *Site) Quiescent() bool {
	quiet := false
	ch := make(chan struct{})
	s.do(func() {
		quiet = len(s.calls) == 0 && len(s.ep.Events()) == 0
		close(ch)
	})
	select {
	case <-ch:
		return quiet
	case <-s.done:
		return true
	}
}

// GVT returns the site's current global-virtual-time estimate.
func (s *Site) GVT() vtime.VT {
	var v vtime.VT
	ch := make(chan struct{})
	s.do(func() {
		v = s.gvt
		close(ch)
	})
	select {
	case <-ch:
	case <-s.done:
	}
	return v
}

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

func (s *Site) handle(msg wire.Message) {
	switch m := msg.(type) {
	case wire.GVTUpdate:
		s.insert(&entry{vt: m.VT, name: m.Name, value: m.Value, origin: m.From})
		_ = s.ep.Send(m.From, s.clock.Now(), wire.GVTAck{VT: m.VT, From: s.id})
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
	s.mu.Lock()
	cb := s.onCommit
	s.mu.Unlock()

	kept := s.uncommitted[:0]
	for _, e := range s.uncommitted {
		if !e.vt.LessEq(s.gvt) || (e.origin == s.id && e.acksDue > 0) {
			kept = append(kept, e)
			continue
		}
		s.committed[e.name] = e.value
		if cb != nil {
			cb(e.name, e.value, e.vt)
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
