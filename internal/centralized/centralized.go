// Package centralized implements the non-replicated application
// architecture of paper §1 as a responsiveness baseline: a single server
// owns the shared state, and every client action round-trips to it — the
// client's own display updates only when the server's echo returns (as in
// shared-X-server systems). DECAF's replicated architecture exists to
// avoid exactly this round-trip.
package centralized

import (
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// loop is the step function a Server and a Client share. Neither runs a
// goroutine: the driver (internal/sim) calls Step, and every method,
// from one goroutine.
type loop struct {
	ep        transport.Endpoint
	onMessage func(wire.Message)
}

// Step hands every message already delivered to onMessage and reports
// whether there was any.
func (l *loop) Step() bool {
	worked := false
	for {
		select {
		case ev, ok := <-l.ep.Events():
			if !ok {
				return worked
			}
			worked = true
			if ev.Kind == transport.EventMessage {
				l.onMessage(ev.Msg)
			}
		default:
			return worked
		}
	}
}

// Server owns the authoritative state and echoes every update to all
// clients.
type Server struct {
	loop
	clients []vtime.SiteID
	state   map[string]any
}

// NewServer creates the central server. clients lists every client site.
func NewServer(ep transport.Endpoint, clients []vtime.SiteID) *Server {
	s := &Server{
		clients: append([]vtime.SiteID(nil), clients...),
		state:   map[string]any{},
	}
	s.loop = loop{ep: ep, onMessage: s.handle}
	return s
}

func (s *Server) handle(msg wire.Message) {
	m, ok := msg.(wire.CenWrite)
	if !ok {
		return
	}
	s.state[m.Name] = m.Value
	echo := wire.CenEcho{Seq: m.Seq, Name: m.Name, Value: m.Value}
	for _, c := range s.clients {
		_ = s.ep.Send(c, vtime.Zero, echo)
	}
}

// Get returns the server's authoritative value.
func (s *Server) Get(name string) any { return s.state[name] }

// Client is a GUI instance in the non-replicated architecture: it holds
// no authoritative state and sees its own actions only via server echoes.
type Client struct {
	loop
	server  vtime.SiteID
	view    map[string]any
	nextSeq uint64
	waiters map[uint64]chan struct{}
	onEcho  func(name string, value any)
}

// NewClient creates a client of the central server.
func NewClient(ep transport.Endpoint, server vtime.SiteID) *Client {
	c := &Client{
		server:  server,
		view:    map[string]any{},
		waiters: map[uint64]chan struct{}{},
	}
	c.loop = loop{ep: ep, onMessage: c.handle}
	return c
}

func (c *Client) handle(msg wire.Message) {
	m, ok := msg.(wire.CenEcho)
	if !ok {
		return
	}
	c.view[m.Name] = m.Value
	if w := c.waiters[m.Seq]; w != nil {
		close(w)
		delete(c.waiters, m.Seq)
	}
	if c.onEcho != nil {
		c.onEcho(m.Name, m.Value)
	}
}

// OnEcho registers a callback for every state echo (the client's "view").
func (c *Client) OnEcho(fn func(name string, value any)) { c.onEcho = fn }

// Write sends an update to the server and returns a channel closed when
// the client's own view reflects it (the echo round-trip — 2t).
func (c *Client) Write(name string, value any) <-chan struct{} {
	c.nextSeq++
	seq := c.nextSeq
	ch := make(chan struct{})
	c.waiters[seq] = ch
	if err := c.ep.Send(c.server, vtime.Zero, wire.CenWrite{Seq: seq, Name: name, Value: value}); err != nil {
		delete(c.waiters, seq)
		close(ch)
	}
	return ch
}

// Get returns the client's latest echoed value.
func (c *Client) Get(name string) any { return c.view[name] }
