// Package centralized implements the non-replicated application
// architecture of paper §1 as a responsiveness baseline: a single server
// owns the shared state, and every client action round-trips to it — the
// client's own display updates only when the server's echo returns (as in
// shared-X-server systems). DECAF's replicated architecture exists to
// avoid exactly this round-trip.
package centralized

import (
	"sync"

	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// loop is the event loop a Server and a Client share: it hands every
// message to handle and runs Quiescent probes, one at a time.
type loop struct {
	ep    transport.Endpoint
	calls chan func()
	stop  sync.Once
	done  chan struct{}
}

// start runs the loop over ep, handing every message to handle.
func (l *loop) start(ep transport.Endpoint, handle func(wire.Message)) {
	l.ep, l.calls, l.done = ep, make(chan func()), make(chan struct{})
	go l.run(handle)
}

func (l *loop) run(handle func(wire.Message)) {
	defer close(l.done)
	events := l.ep.Events()
	for {
		select {
		case fn := <-l.calls:
			fn()
		case ev, ok := <-events:
			if !ok {
				return
			}
			if ev.Kind == transport.EventMessage {
				handle(ev.Msg)
			}
		}
	}
}

// Quiescent reports whether the event loop is parked over an empty
// intake queue. Messages still in flight in the transport do not count;
// the deterministic simulation harness (internal/sim) owns those. The
// probe round-trips through the loop, so a message is either visibly
// queued or fully handled. A stopped loop is quiescent.
func (l *loop) Quiescent() bool {
	quiet := false
	ch := make(chan struct{})
	select {
	case l.calls <- func() { quiet = len(l.ep.Events()) == 0; close(ch) }:
	case <-l.done:
		return true
	}
	select {
	case <-ch:
		return quiet
	case <-l.done:
		return true
	}
}

// Stop shuts the loop down.
func (l *loop) Stop() {
	l.stop.Do(func() { _ = l.ep.Close() })
	<-l.done
}

// Server owns the authoritative state and echoes every update to all
// clients.
type Server struct {
	loop
	clients []vtime.SiteID

	mu    sync.Mutex
	state map[string]any
}

// NewServer creates (and starts) the central server. clients lists every
// client site.
func NewServer(ep transport.Endpoint, clients []vtime.SiteID) *Server {
	s := &Server{
		clients: append([]vtime.SiteID(nil), clients...),
		state:   map[string]any{},
	}
	s.start(ep, s.handle)
	return s
}

func (s *Server) handle(msg wire.Message) {
	m, ok := msg.(wire.CenWrite)
	if !ok {
		return
	}
	s.mu.Lock()
	s.state[m.Name] = m.Value
	s.mu.Unlock()
	echo := wire.CenEcho{Seq: m.Seq, Name: m.Name, Value: m.Value}
	for _, c := range s.clients {
		_ = s.ep.Send(c, vtime.Zero, echo)
	}
}

// Get returns the server's authoritative value.
func (s *Server) Get(name string) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state[name]
}

// Client is a GUI instance in the non-replicated architecture: it holds
// no authoritative state and sees its own actions only via server echoes.
type Client struct {
	loop
	server vtime.SiteID

	mu      sync.Mutex
	view    map[string]any
	nextSeq uint64
	waiters map[uint64]chan struct{}
	onEcho  func(name string, value any)
}

// NewClient creates (and starts) a client of the central server.
func NewClient(ep transport.Endpoint, server vtime.SiteID) *Client {
	c := &Client{
		server:  server,
		view:    map[string]any{},
		waiters: map[uint64]chan struct{}{},
	}
	c.start(ep, c.handle)
	return c
}

func (c *Client) handle(msg wire.Message) {
	m, ok := msg.(wire.CenEcho)
	if !ok {
		return
	}
	c.mu.Lock()
	c.view[m.Name] = m.Value
	w := c.waiters[m.Seq]
	delete(c.waiters, m.Seq)
	cb := c.onEcho
	c.mu.Unlock()
	if w != nil {
		close(w)
	}
	if cb != nil {
		cb(m.Name, m.Value)
	}
}

// OnEcho registers a callback for every state echo (the client's "view").
func (c *Client) OnEcho(fn func(name string, value any)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onEcho = fn
}

// Write sends an update to the server and returns a channel closed when
// the client's own view reflects it (the echo round-trip — 2t).
func (c *Client) Write(name string, value any) <-chan struct{} {
	c.mu.Lock()
	c.nextSeq++
	seq := c.nextSeq
	ch := make(chan struct{})
	c.waiters[seq] = ch
	c.mu.Unlock()
	if err := c.ep.Send(c.server, vtime.Zero, wire.CenWrite{Seq: seq, From: c.ep.Site(), Name: name, Value: value}); err != nil {
		c.mu.Lock()
		delete(c.waiters, seq)
		c.mu.Unlock()
		close(ch)
	}
	return ch
}

// Get returns the client's latest echoed value.
func (c *Client) Get(name string) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view[name]
}
