// Package transport carries DECAF protocol messages between sites.
//
// Two implementations are provided:
//
//   - Network, an in-memory simulated network with configurable
//     point-to-point latency, jitter, partitions, and fail-stop site
//     failures. The paper's performance analysis is expressed in
//     multiples of the one-way message latency t (§5.1); the simulated
//     network injects exactly that parameter, which is how the
//     experiments reproduce the paper's latency results.
//
//   - TCP, a real transport framing the internal/wire binary codec over
//     net, for running collaborating applications as separate OS
//     processes.
//
// Both present the same Endpoint interface, the same delivery rule —
// nothing accepted is dropped until the endpoint closes or the peer is
// declared failed — and fail-stop failure notifications (paper §3.4:
// "the underlying communication infrastructure provides notification of
// such failures ... as fail-stop failures").
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decaf/internal/obs"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// EventKind discriminates endpoint events.
type EventKind int

// Endpoint event kinds.
const (
	// EventMessage delivers a protocol message from a peer.
	EventMessage EventKind = iota + 1
	// EventSiteFailed notifies that a peer site failed (fail-stop):
	// no further messages from it will be delivered until it rejoins as
	// a new member. The TCP transport only emits it after its suspicion
	// policy (reconnect backoff budget / downtime window) is exhausted.
	EventSiteFailed
	// EventSiteRecovered notifies that a peer previously reported via
	// EventSiteFailed has come back (it re-established a connection):
	// the suspicion was premature and sends to it will succeed again.
	// The engine uses it to un-suspect the peer; any §3.4 failover
	// already performed stands (the peer rejoins as a new member).
	EventSiteRecovered
)

// Event is something an endpoint receives: a message or a failure /
// recovery notification (a control event).
type Event struct {
	Kind EventKind
	// From is the sending site (EventMessage).
	From vtime.SiteID
	// SentAt is the sender's Lamport stamp at send time, merged into the
	// receiver's clock (EventMessage).
	SentAt vtime.VT
	// Msg is the protocol message (EventMessage).
	Msg wire.Message
	// Failed is the subject site (EventSiteFailed, EventSiteRecovered).
	Failed vtime.SiteID
}

// Endpoint is one site's attachment to a transport.
type Endpoint interface {
	// Site returns the site this endpoint belongs to.
	Site() vtime.SiteID
	// Send transmits msg to the destination site. sentAt is the sender's
	// current Lamport stamp. Sends to failed or unknown sites return an
	// error; sends lost to partitions are silently dropped (the network
	// gives no feedback, as on a real LAN).
	Send(to vtime.SiteID, sentAt vtime.VT, msg wire.Message) error
	BatchSender
	// Events returns the endpoint's delivery channel. Nothing the
	// endpoint accepts is dropped before it closes or its site is killed:
	// messages and control events share the channel in arrival order, and
	// events that find it full wait, in order, in an unbounded backlog.
	// The channel is closed when the endpoint itself is closed or its
	// site is killed.
	Events() <-chan Event
	// Close detaches the endpoint.
	Close() error
}

// BatchSender is the Endpoint method that transmits several messages to
// one destination with a single transport handoff. The engine uses it to
// coalesce the outbound messages of one event-loop batch per peer.
// Semantics match len(msgs) sequential Send calls: per-message fault
// injection and latency jitter still apply, and FIFO delivery order is
// preserved.
type BatchSender interface {
	SendBatch(to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error
}

// Clock schedules the simulated Network's deliveries. Now returns the
// current time as an offset (monotonic, origin arbitrary); At runs fn at
// the absolute time due, after every event scheduled earlier for that
// instant. The simulation harness (internal/sim) injects its virtual
// clock, so every message delay becomes a seeded, replayable decision.
type Clock interface {
	Now() time.Duration
	At(due time.Duration, fn func())
}

// WallClock is the engine's default retry Scheduler: AfterFunc on a
// runtime timer. The engine itself constructs no timers (enforced by
// the decaf-vet timers analyzer), so this real-timer fallback lives
// here with the transport's other timing machinery.
type WallClock struct{}

// AfterFunc schedules fn on a real timer.
func (WallClock) AfterFunc(d time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

// wallEpoch is the origin of realClock.Now.
var wallEpoch = time.Now()

// realClock is the Clock of a Network given none: events ordered by
// (due, schedule order), fired by one goroutine on one runtime timer,
// started by the first At and stopped by close.
type realClock struct {
	mu      sync.Mutex
	events  []clockEvent  // guarded by mu; sorted by due, ties in schedule order
	running bool          // guarded by mu
	closed  bool          // guarded by mu
	wake    chan struct{} // buffered: a new earliest event, never blocks At
	stop    chan struct{}
	done    chan struct{}
}

type clockEvent struct {
	due time.Duration
	fn  func()
}

func (c *realClock) Now() time.Duration { return time.Since(wallEpoch) }

func (c *realClock) At(due time.Duration, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if !c.running {
		c.running = true
		go c.run()
	}
	// After every event due no later; the FIFO clamp makes most an append.
	i := sort.Search(len(c.events), func(i int) bool { return c.events[i].due > due })
	c.events = slices.Insert(c.events, i, clockEvent{due, fn})
	if i == 0 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// run fires due events until close. A stale timer tick or wake-up only
// costs one more look at the queue.
func (c *realClock) run() {
	defer close(c.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		c.mu.Lock()
		now := c.Now()
		n := sort.Search(len(c.events), func(i int) bool { return c.events[i].due > now })
		fire := c.events[:n:n]
		c.events = c.events[n:]
		if n == 0 && len(c.events) > 0 {
			timer.Reset(c.events[0].due - now)
		}
		c.mu.Unlock()
		for _, ev := range fire {
			ev.fn()
		}
		if n > 0 {
			continue
		}
		select {
		case <-timer.C:
		case <-c.wake:
		case <-c.stop:
			return
		}
	}
}

// close discards the pending events and stops the goroutine.
func (c *realClock) close() {
	c.mu.Lock()
	running := c.running && !c.closed
	c.closed = true
	c.events = nil
	c.mu.Unlock()
	if running {
		close(c.stop)
		<-c.done
	}
}

// ErrSiteDown is returned by Send when the destination site has failed or
// closed its endpoint.
var ErrSiteDown = errors.New("transport: destination site is down")

// ErrUnknownSite is returned by Send when the destination was never
// registered with the transport.
var ErrUnknownSite = errors.New("transport: unknown destination site")

// ---------------------------------------------------------------------------
// In-memory simulated network.
// ---------------------------------------------------------------------------

// Config parameterizes a simulated Network. LatencyFn and OnDeliver may
// run under the network's lock: they must not call back into it.
type Config struct {
	// Latency is the base one-way point-to-point message latency — the
	// paper's t. Zero means immediate delivery.
	Latency time.Duration
	// Jitter adds a uniformly distributed [0, Jitter) delay per message.
	// FIFO order per (sender, receiver) pair is preserved regardless.
	Jitter time.Duration
	// Seed seeds the jitter source; the default (0) gives a fixed seed
	// so simulations are reproducible.
	Seed int64
	// LatencyFn, when non-nil, overrides Latency per ordered site pair.
	LatencyFn func(from, to vtime.SiteID) time.Duration
	// QueueSize is the capacity of each endpoint's Events channel
	// (default 4096). It bounds no delivery: events that find the
	// channel full wait, in order, in the endpoint's unbounded backlog.
	QueueSize int
	// Faults, when non-nil, injects network faults: DropFrames loses
	// individual messages in flight and DelayFrames slows every message
	// down (each simulated message is one frame). Dial- and
	// connection-level faults have no meaning here and are ignored.
	Faults *Faults
	// Clock, when non-nil, replaces the network's real-time clock: every
	// delayed delivery is then an event the clock's owner fires
	// explicitly. This is how internal/sim makes a whole run a
	// deterministic function of Seed.
	Clock Clock
	// Duplicate, when > 0, re-delivers each message with the given
	// probability after one extra latency draw — a transport-level
	// retransmit arriving out of band. The original copies still arrive
	// in FIFO order; the duplicate is extra and may arrive after newer
	// messages, which the engine's outcome/ dedup bookkeeping must (and
	// does) tolerate. The simulation harness uses it.
	Duplicate float64
	// OnDeliver, when non-nil, observes every event at the moment the
	// network hands it to the destination endpoint (after latency,
	// including duplicates; dead-endpoint drops included). The
	// simulation harness records its event trace here.
	OnDeliver func(to vtime.SiteID, ev Event)
}

// Network is an in-memory simulated network. Endpoints attach with
// Endpoint; Kill simulates a fail-stop site crash; Partition/Heal simulate
// connectivity loss. Every event goes through dispatch.
type Network struct {
	cfg   Config
	clock Clock // cfg.Clock, or the network's own realClock

	mu sync.Mutex
	st netState // guarded by mu
}

// netState is what Network.mu guards; helpers under the lock take it.
type netState struct {
	rng       *rand.Rand
	endpoints map[vtime.SiteID]*memEndpoint
	dead      map[vtime.SiteID]bool
	blocked   map[linkKey]bool // partitioned ordered pairs
	pairs     map[linkKey]*pair
	closed    bool
}

type linkKey struct {
	from, to vtime.SiteID
}

// pair is one ordered site pair: its destination and FIFO state.
type pair struct {
	from, to vtime.SiteID
	ep       *memEndpoint
	// due is the latest due time given to the pair's events: later ones
	// are clamped to it. Read and written under Network.mu.
	due time.Duration
	// pending counts the pair's scheduled events the endpoint has not
	// yet accepted; while it is non-zero nothing is delivered inline.
	pending atomic.Int32
}

// pair returns the pair from -> to, whose destination is attached.
func (st *netState) pair(from, to vtime.SiteID) *pair {
	key := linkKey{from, to}
	p := st.pairs[key]
	if p == nil {
		p = &pair{from: from, to: to, ep: st.endpoints[to]}
		st.pairs[key] = p
	}
	return p
}

// NewNetwork creates a simulated network.
func NewNetwork(cfg Config) *Network {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	clock := cfg.Clock
	if clock == nil {
		clock = &realClock{wake: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	}
	return &Network{cfg: cfg, clock: clock, st: netState{
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		endpoints: map[vtime.SiteID]*memEndpoint{},
		dead:      map[vtime.SiteID]bool{},
		blocked:   map[linkKey]bool{},
		pairs:     map[linkKey]*pair{},
	}}
}

// Endpoint attaches site to the network and returns its endpoint.
// Attaching an already attached site returns an error.
func (n *Network) Endpoint(site vtime.SiteID) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.st.closed {
		return nil, errors.New("transport: network closed")
	}
	if _, ok := n.st.endpoints[site]; ok {
		return nil, fmt.Errorf("transport: site %s already attached", site)
	}
	ep := &memEndpoint{net: n, site: site, in: newInbox(n.cfg.QueueSize)}
	n.st.endpoints[site] = ep
	delete(n.st.dead, site)
	return ep, nil
}

// latency computes the one-way delay for a message from -> to, including
// jitter. The caller holds n.mu.
func (n *Network) latency(st *netState, from, to vtime.SiteID) time.Duration {
	d := n.cfg.Latency
	if n.cfg.LatencyFn != nil {
		d = n.cfg.LatencyFn(from, to)
	}
	if n.cfg.Jitter > 0 {
		d += time.Duration(st.rng.Int63n(int64(n.cfg.Jitter)))
	}
	return d
}

// dispatch delivers ev over p after delay, in per-pair FIFO order; now is
// the clock's time and the caller holds n.mu. An event due at once on an
// idle pair goes to the endpoint inline, on the caller's goroutine; any
// other becomes a clock event at its clamped due time.
func (n *Network) dispatch(st *netState, p *pair, now time.Duration, ev Event, delay time.Duration) {
	if st.closed {
		return
	}
	due := max(now+delay, p.due)
	p.due = due
	// Duplicate-within-policy: an extra copy lands one more latency draw
	// later, out of band (no clamp, not pending).
	dup := ev.Kind == EventMessage && n.cfg.Duplicate > 0 && st.rng.Float64() < n.cfg.Duplicate
	if due <= now && p.pending.Load() == 0 {
		p.ep.deliver(ev)
	} else {
		p.pending.Add(1)
		n.clock.At(due, func() {
			p.ep.deliver(ev)
			p.pending.Add(-1)
		})
	}
	if dup {
		n.clock.At(due+n.latency(st, p.from, p.to), func() { p.ep.deliver(ev) })
	}
}

// sendBatch sends msgs under one hold of n.mu: the link-state checks,
// pair lookup and clock reading once, fault injection and jitter per
// message.
func (n *Network) sendBatch(from, to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.st.closed || n.st.dead[from] || n.st.dead[to] {
		return ErrSiteDown
	}
	if _, ok := n.st.endpoints[to]; !ok {
		return ErrUnknownSite
	}
	if n.st.blocked[linkKey{from, to}] {
		return nil // partitioned: silently dropped, like a real network
	}
	p, now := n.st.pair(from, to), n.clock.Now()
	for _, msg := range msgs {
		if n.cfg.Faults.dropFrame(to) {
			continue // injected loss, per message
		}
		ev := Event{Kind: EventMessage, From: from, SentAt: sentAt, Msg: msg}
		n.dispatch(&n.st, p, now, ev, n.latency(&n.st, from, to)+n.cfg.Faults.frameDelay())
	}
	return nil
}

// Kill simulates a fail-stop crash of site: its endpoint stops
// receiving (messages to it, in flight or later, are dropped), and every
// other attached site receives an EventSiteFailed notification after one
// network latency (the failure detector's report). Messages the site
// sent before it died still arrive, ahead of the notification.
func (n *Network) Kill(site vtime.SiteID) {
	n.mu.Lock()
	if n.st.dead[site] {
		n.mu.Unlock()
		return
	}
	n.st.dead[site] = true
	ep := n.st.endpoints[site]
	n.mu.Unlock()
	if ep != nil {
		ep.in.close() // waits for its pump: not under n.mu
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.notifyOthers(&n.st, site, EventSiteFailed)
}

// Suspect delivers an EventSiteFailed report for site to every other
// live site WITHOUT killing it: the failure detector false-positives on
// a silent partition (a weakly connected peer, DESIGN.md §13). The
// suspected site keeps running and its links stay usable, subject to
// any Partition in effect.
func (n *Network) Suspect(site vtime.SiteID) { n.report(site, EventSiteFailed) }

// Unsuspect delivers an EventSiteRecovered report for site to every
// other live site: the suspicion was premature — the peer reconnected.
func (n *Network) Unsuspect(site vtime.SiteID) { n.report(site, EventSiteRecovered) }

// report fans a control event about a live site out to the others.
func (n *Network) report(site vtime.SiteID, kind EventKind) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.st.dead[site] {
		n.notifyOthers(&n.st, site, kind)
	}
}

// notifyOthers dispatches a control event about site to every other
// live site, in ID order: the RNG draws and schedule slots must not
// depend on map iteration order. The caller holds n.mu.
func (n *Network) notifyOthers(st *netState, site vtime.SiteID, kind EventKind) {
	var others []vtime.SiteID
	for s := range st.endpoints {
		if s != site && !st.dead[s] {
			others = append(others, s)
		}
	}
	slices.Sort(others)
	now := n.clock.Now()
	for _, s := range others {
		n.dispatch(st, st.pair(site, s), now, Event{Kind: kind, Failed: site}, n.latency(st, site, s))
	}
}

// Alive reports whether site is attached and not killed.
func (n *Network) Alive(site vtime.SiteID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.st.endpoints[site]
	return ok && !n.st.dead[site]
}

// Observe exports the depth of site's inbound backlog (the events that
// found its Events channel full) on o.
func (n *Network) Observe(site vtime.SiteID, o *obs.Observer) {
	n.mu.Lock()
	ep := n.st.endpoints[site]
	n.mu.Unlock()
	if ep == nil || o == nil {
		return
	}
	ep.in.observe(o.Metrics())
}

// Partition blocks message delivery in both directions between a and b.
// Unlike Kill, no failure notification is generated (a silent partition).
func (n *Network) Partition(a, b vtime.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.st.blocked[linkKey{a, b}] = true
	n.st.blocked[linkKey{b, a}] = true
}

// Heal removes a partition between a and b.
func (n *Network) Heal(a, b vtime.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.st.blocked, linkKey{a, b})
	delete(n.st.blocked, linkKey{b, a})
}

// Close shuts the network down: undelivered events are discarded, the
// clock stops (if the network owns it), all endpoint channels close.
// Safe to call more than once.
func (n *Network) Close() {
	n.mu.Lock()
	if n.st.closed {
		n.mu.Unlock()
		return
	}
	n.st.closed = true
	eps := make([]*memEndpoint, 0, len(n.st.endpoints))
	for _, ep := range n.st.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()

	if c, ok := n.clock.(*realClock); ok {
		c.close()
	}
	for _, ep := range eps {
		ep.in.close()
	}
}

// memEndpoint is a site's attachment to a Network.
type memEndpoint struct {
	net  *Network
	site vtime.SiteID
	in   *inbox
}

var _ Endpoint = (*memEndpoint)(nil)

func (ep *memEndpoint) Site() vtime.SiteID { return ep.site }

func (ep *memEndpoint) Send(to vtime.SiteID, sentAt vtime.VT, msg wire.Message) error {
	return ep.SendBatch(to, sentAt, []wire.Message{msg})
}

func (ep *memEndpoint) SendBatch(to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error {
	return ep.net.sendBatch(ep.site, to, sentAt, msgs)
}

func (ep *memEndpoint) Events() <-chan Event { return ep.in.events }

// Accepted counts the events the endpoint has accepted for delivery. A
// consumer that has received fewer has more coming even while the
// Events channel is empty: the inbox pump is moving them over.
func (ep *memEndpoint) Accepted() uint64 { return ep.in.acceptedCount() }

// deliver hands ev to the endpoint's inbox, after the OnDeliver hook.
func (ep *memEndpoint) deliver(ev Event) {
	if ep.net.cfg.OnDeliver != nil {
		ep.net.cfg.OnDeliver(ep.site, ev)
	}
	ep.in.deliver(ev)
}

func (ep *memEndpoint) Close() error {
	ep.net.Kill(ep.site)
	return nil
}
