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
// Both present the same Endpoint interface and fail-stop failure
// notifications (paper §3.4: "the underlying communication infrastructure
// provides notification of such failures ... as fail-stop failures").
package transport

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
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
// recovery notification. Failure and recovery are control events: the
// TCP transport delivers them losslessly (they are never dropped on a
// full event buffer, unlike messages).
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
	// Events returns the endpoint's delivery channel. The channel is
	// closed when the endpoint itself is closed or its site is killed.
	Events() <-chan Event
	// Close detaches the endpoint.
	Close() error
}

// BatchSender is an optional Endpoint extension: SendBatch transmits
// several messages to one destination with a single transport handoff.
// The engine uses it to coalesce the outbound messages of one event-loop
// batch per peer. Semantics match len(msgs) sequential Send calls:
// per-message fault injection and latency jitter still apply, and FIFO
// delivery order is preserved.
type BatchSender interface {
	SendBatch(to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error
}

// Clock abstracts deferred scheduling for the simulated Network. Now
// returns the current time as an offset (monotonic, origin arbitrary);
// AfterFunc schedules fn at Now()+d and returns a cancel. The default
// real-time implementation is WallClock; the deterministic simulation
// harness (internal/sim) injects its virtual event-queue clock so every
// message delay becomes a seeded, replayable schedule decision.
type Clock interface {
	Now() time.Duration
	AfterFunc(d time.Duration, fn func()) (cancel func())
}

// WallClock is the real-time Clock: AfterFunc uses a runtime timer. It
// is also the engine's default retry Scheduler — the engine itself
// constructs no timers (enforced by the decaf-vet timers analyzer), so
// the one real-timer fallback lives here with the transport's other
// timing machinery.
type WallClock struct{}

var wallEpoch = time.Now()

// Now returns the monotonic offset since process start.
func (WallClock) Now() time.Duration { return time.Since(wallEpoch) }

// AfterFunc schedules fn on a real timer.
func (WallClock) AfterFunc(d time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
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

// Config parameterizes a simulated Network.
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
	// QueueSize is the per-endpoint delivery buffer (default 4096).
	QueueSize int
	// Faults, when non-nil, injects network faults: DropFrames loses
	// individual messages in flight and DelayFrames slows every message
	// down (each simulated message is one frame). Dial- and
	// connection-level faults have no meaning here and are ignored.
	Faults *Faults
	// Clock, when non-nil, replaces the real-timer delivery pump with
	// scheduled events on the given clock: no link goroutines, no
	// time.Timer sleeps — every delivery is an event the clock's owner
	// fires explicitly. Per-pair FIFO order is still preserved via the
	// due-time clamp. This is how internal/sim makes a whole run a
	// deterministic function of Seed.
	Clock Clock
	// Duplicate, when > 0, re-delivers each message with the given
	// probability after one extra latency draw — a transport-level
	// retransmit arriving out of band. The original copies still arrive
	// in FIFO order; the duplicate is extra and may arrive after newer
	// messages, which the engine's outcome/ dedup bookkeeping must (and
	// does) tolerate. Requires Clock (it exists for the simulation
	// harness; the real-timer path ignores it).
	Duplicate float64
	// OnDeliver, when non-nil, observes every event at the moment the
	// network hands it to the destination endpoint (after latency,
	// including duplicates; dead-endpoint drops included). The
	// simulation harness records its event trace here.
	OnDeliver func(to vtime.SiteID, ev Event)
}

// Network is an in-memory simulated network. Endpoints attach with
// Endpoint; Kill simulates a fail-stop site crash; Partition/Heal simulate
// connectivity loss.
type Network struct {
	cfg Config

	mu        sync.Mutex
	rng       *rand.Rand                    // guarded by mu
	endpoints map[vtime.SiteID]*memEndpoint // guarded by mu
	links     map[linkKey]*memLink          // guarded by mu
	dead      map[vtime.SiteID]bool         // guarded by mu
	blocked   map[linkKey]bool              // guarded by mu; partitioned ordered pairs
	vdue      map[linkKey]time.Duration     // guarded by mu; per-pair FIFO clamp under cfg.Clock
	closed    bool                          // guarded by mu
	wg        sync.WaitGroup

	dropped atomic.Uint64 // message events lost to a full endpoint buffer
}

type linkKey struct {
	from, to vtime.SiteID
}

// NewNetwork creates a simulated network.
func NewNetwork(cfg Config) *Network {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		endpoints: map[vtime.SiteID]*memEndpoint{},
		links:     map[linkKey]*memLink{},
		dead:      map[vtime.SiteID]bool{},
		blocked:   map[linkKey]bool{},
		vdue:      map[linkKey]time.Duration{},
	}
}

// Endpoint attaches site to the network and returns its endpoint.
// Attaching an already attached site returns an error.
func (n *Network) Endpoint(site vtime.SiteID) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("transport: network closed")
	}
	if _, ok := n.endpoints[site]; ok {
		return nil, fmt.Errorf("transport: site %s already attached", site)
	}
	ep := &memEndpoint{
		net:    n,
		site:   site,
		events: make(chan Event, n.cfg.QueueSize),
	}
	n.endpoints[site] = ep
	delete(n.dead, site)
	return ep, nil
}

// latency computes the one-way delay for a message from -> to, including
// jitter.
func (n *Network) latency(from, to vtime.SiteID) time.Duration {
	d := n.cfg.Latency
	if n.cfg.LatencyFn != nil {
		d = n.cfg.LatencyFn(from, to)
	}
	if n.cfg.Jitter > 0 {
		n.mu.Lock()
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
		n.mu.Unlock()
	}
	return d
}

// link returns (creating if needed) the FIFO delivery link from -> to.
func (n *Network) link(from, to vtime.SiteID) *memLink {
	key := linkKey{from, to}
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[key]; ok {
		return l
	}
	l := &memLink{
		net:  n,
		to:   to,
		ch:   make(chan queuedEvent, 1024),
		stop: make(chan struct{}),
	}
	n.links[key] = l
	n.wg.Add(1)
	go l.run(&n.wg)
	return l
}

// deliver hands an event to the destination endpoint if it is alive.
func (n *Network) deliver(to vtime.SiteID, ev Event) {
	if n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(to, ev)
	}
	n.mu.Lock()
	ep, ok := n.endpoints[to]
	n.mu.Unlock()
	if !ok {
		return
	}
	ep.deliver(ev)
}

// dispatch schedules ev for delivery to `to` after delay, preserving
// per-ordered-pair FIFO order. With a virtual clock configured the
// delivery becomes a clock event (fired by the simulation driver);
// otherwise it goes through the link's real-timer pump goroutine.
func (n *Network) dispatch(from, to vtime.SiteID, ev Event, delay time.Duration) {
	clk := n.cfg.Clock
	if clk == nil {
		n.link(from, to).enqueue(ev, delay)
		return
	}
	key := linkKey{from, to}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	now := clk.Now()
	due := now + delay
	// Clamp to preserve FIFO when jitter would reorder; events at equal
	// due times fire in schedule order, so `due == last` keeps FIFO too.
	if last, ok := n.vdue[key]; ok && due < last {
		due = last
	}
	n.vdue[key] = due
	// Duplicate-within-policy: an extra copy lands one more latency draw
	// later, out of band (it does not advance the FIFO clamp).
	dup := ev.Kind == EventMessage && n.cfg.Duplicate > 0 && n.rng.Float64() < n.cfg.Duplicate
	n.mu.Unlock()

	clk.AfterFunc(due-now, func() { n.deliver(to, ev) })
	if dup {
		clk.AfterFunc(due-now+n.latency(from, to), func() { n.deliver(to, ev) })
	}
}

// sendBatch enqueues a batch of messages for delivery: one pass over
// the link-state checks and one link lookup for the whole batch, with
// per-message fault injection and jitter (FIFO order is preserved by
// the link's due-time clamp).
func (n *Network) sendBatch(from, to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error {
	n.mu.Lock()
	if n.dead[from] || n.dead[to] {
		n.mu.Unlock()
		return ErrSiteDown
	}
	if _, ok := n.endpoints[to]; !ok {
		n.mu.Unlock()
		return ErrUnknownSite
	}
	if n.blocked[linkKey{from, to}] {
		// Partitioned: silently dropped, like a real network.
		n.mu.Unlock()
		return nil
	}
	n.mu.Unlock()

	for _, msg := range msgs {
		if n.cfg.Faults.dropFrame(to) {
			continue // injected loss, per message
		}
		ev := Event{Kind: EventMessage, From: from, SentAt: sentAt, Msg: msg}
		n.dispatch(from, to, ev, n.latency(from, to)+n.cfg.Faults.frameDelay())
	}
	return nil
}

// Kill simulates a fail-stop crash of site: its endpoint stops receiving,
// all its in-flight messages are dropped at delivery time, and every other
// attached site receives an EventSiteFailed notification after one network
// latency (the failure detector's report).
func (n *Network) Kill(site vtime.SiteID) {
	n.mu.Lock()
	if n.dead[site] || n.closed {
		n.mu.Unlock()
		return
	}
	n.dead[site] = true
	ep := n.endpoints[site]
	var others []vtime.SiteID
	for s := range n.endpoints {
		if s != site && !n.dead[s] {
			others = append(others, s)
		}
	}
	n.mu.Unlock()
	// Deterministic notification order: the RNG draws and schedule slots
	// below must not depend on map iteration order.
	sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })

	if ep != nil {
		ep.kill()
	}
	for _, s := range others {
		ev := Event{Kind: EventSiteFailed, Failed: site}
		n.dispatch(site, s, ev, n.latency(site, s))
	}
}

// Suspect delivers an EventSiteFailed report for site to every other
// live site WITHOUT killing it: the failure detector false-positives on
// a silent partition (a weakly connected peer, DESIGN.md §13). The
// suspected site keeps running and its links stay usable, subject to
// any Partition in effect.
func (n *Network) Suspect(site vtime.SiteID) {
	n.notifyOthers(site, EventSiteFailed)
}

// Unsuspect delivers an EventSiteRecovered report for site to every
// other live site: the suspicion was premature — the peer reconnected.
func (n *Network) Unsuspect(site vtime.SiteID) {
	n.notifyOthers(site, EventSiteRecovered)
}

// notifyOthers fans a control event about site out to every other live
// site, in deterministic ID order (same reasoning as Kill).
func (n *Network) notifyOthers(site vtime.SiteID, kind EventKind) {
	n.mu.Lock()
	if n.dead[site] || n.closed {
		n.mu.Unlock()
		return
	}
	var others []vtime.SiteID
	for s := range n.endpoints {
		if s != site && !n.dead[s] {
			others = append(others, s)
		}
	}
	n.mu.Unlock()
	sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
	for _, s := range others {
		ev := Event{Kind: kind, Failed: site}
		n.dispatch(site, s, ev, n.latency(site, s))
	}
}

// Alive reports whether site is attached and not killed.
func (n *Network) Alive(site vtime.SiteID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.endpoints[site]
	return ok && !n.dead[site]
}

// Dropped counts the events endpoints of this network discarded because
// their delivery buffer (Config.QueueSize) was full. Nothing retransmits
// them: a site that was dropped on has fallen behind for good.
func (n *Network) Dropped() uint64 { return n.dropped.Load() }

// Observe makes site's endpoint count its drops on o as well, under the
// name a TCP endpoint given the same observer uses.
func (n *Network) Observe(site vtime.SiteID, o *obs.Observer) {
	n.mu.Lock()
	ep := n.endpoints[site]
	n.mu.Unlock()
	if ep == nil || o == nil {
		return
	}
	c := messagesDroppedCounter(o.Metrics())
	ep.mu.Lock()
	ep.dropped = c
	ep.mu.Unlock()
}

// Partition blocks message delivery in both directions between a and b.
// Unlike Kill, no failure notification is generated (a silent partition).
func (n *Network) Partition(a, b vtime.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[linkKey{a, b}] = true
	n.blocked[linkKey{b, a}] = true
}

// Heal removes a partition between a and b.
func (n *Network) Heal(a, b vtime.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, linkKey{a, b})
	delete(n.blocked, linkKey{b, a})
}

// Close shuts the network down: all links stop, all endpoint channels
// close. Safe to call once.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	links := make([]*memLink, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	eps := make([]*memEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()

	for _, l := range links {
		l.close()
	}
	n.wg.Wait()
	for _, ep := range eps {
		ep.kill()
	}
}

// queuedEvent is an event with its delivery deadline.
type queuedEvent struct {
	ev  Event
	due time.Time
}

// memLink is a FIFO delivery pipe for one ordered site pair. A dedicated
// goroutine sleeps until each message's due time, preserving send order
// even when jitter varies per message.
type memLink struct {
	net  *Network
	to   vtime.SiteID
	ch   chan queuedEvent
	stop chan struct{}

	mu      sync.Mutex
	lastDue time.Time // guarded by mu
	closed  bool      // guarded by mu
}

func (l *memLink) enqueue(ev Event, delay time.Duration) {
	due := time.Now().Add(delay)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	// Clamp to preserve FIFO when jitter would reorder.
	if due.Before(l.lastDue) {
		due = l.lastDue
	}
	l.lastDue = due
	l.mu.Unlock()

	select {
	case l.ch <- queuedEvent{ev: ev, due: due}:
	case <-l.stop:
	}
}

func (l *memLink) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.stop)
}

func (l *memLink) run(wg *sync.WaitGroup) {
	defer wg.Done()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case q := <-l.ch:
			if wait := time.Until(q.due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-l.stop:
					return
				}
			}
			l.net.deliver(l.to, q.ev)
		case <-l.stop:
			return
		}
	}
}

// memEndpoint is a site's attachment to a Network.
type memEndpoint struct {
	net    *Network
	site   vtime.SiteID
	events chan Event

	mu         sync.Mutex
	closed     bool         // guarded by mu
	dropped    *obs.Counter // guarded by mu; nil until Network.Observe
	dropLogged bool         // guarded by mu
}

var (
	_ Endpoint    = (*memEndpoint)(nil)
	_ BatchSender = (*memEndpoint)(nil)
)

func (ep *memEndpoint) Site() vtime.SiteID { return ep.site }

func (ep *memEndpoint) Send(to vtime.SiteID, sentAt vtime.VT, msg wire.Message) error {
	return ep.SendBatch(to, sentAt, []wire.Message{msg})
}

func (ep *memEndpoint) SendBatch(to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return ErrSiteDown
	}
	ep.mu.Unlock()
	return ep.net.sendBatch(ep.site, to, sentAt, msgs)
}

func (ep *memEndpoint) Events() <-chan Event { return ep.events }

func (ep *memEndpoint) deliver(ev Event) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	// Blocking send under the lock would deadlock with kill(); the
	// buffer is large and the engine drains continuously, so a full
	// buffer indicates a stuck site — drop, as a real network would,
	// and count it as the TCP endpoint does.
	first := false
	select {
	case ep.events <- ev:
	default:
		ep.net.dropped.Add(1)
		ep.dropped.Inc()
		first = !ep.dropLogged
		ep.dropLogged = true
	}
	ep.mu.Unlock()
	if first {
		slog.Warn("transport: delivery buffer full, event dropped (first drop at this endpoint; Network.Dropped counts them all)",
			"site", ep.site.String(), "queue_size", cap(ep.events))
	}
}

func (ep *memEndpoint) kill() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	ep.closed = true
	close(ep.events)
}

func (ep *memEndpoint) Close() error {
	ep.net.Kill(ep.site)
	return nil
}
