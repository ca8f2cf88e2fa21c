package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"decaf/internal/obs"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// The TCP transport frames the binary wire codec:
//
//	frame   := u32 big-endian payload length | payload
//	payload := kind byte | body          (empty payload = keepalive probe)
//	hello   := 0x01 | site uvarint | incarnation uvarint   (first frame)
//	data    := 0x02 | firstSeq uvarint | envelope+
//	ack     := 0x03 | incarnation uvarint | cumulative seq uvarint
//	envelope:= from uvarint | sentAt.Time uvarint | sentAt.Site uvarint
//	           | message (self-delimiting, wire.AppendMessage)
//
// Each peer has an unbounded outbound queue drained by a dedicated
// writer goroutine: Send never blocks on a dial or a socket write, and
// every envelope queued while a flush was in progress rides the next
// frame, so N queued protocol messages cost one syscall. The writer takes
// from the queue only while the retransmit window has room, so
// RetainLimit bounds what is in flight.
//
// Acks ride data. The cumulative ack is written in front of the next
// data frame to the peer; a standalone ack frame goes out only when the
// ack-delay timer fires with debt outstanding, when the debt reaches a
// quarter of the retransmit window, or at the start of a connection or
// peer incarnation. An arriving ack wakes the writer only if it is
// blocked on a full window; otherwise the writer prunes on its next
// wake-up for real work. Two-way traffic therefore costs one frame, one
// flush and one writer wake-up per message (DESIGN.md §7).
//
// Resilience. A connection error does not declare the peer dead: the
// writer goroutine redials with exponential backoff + jitter (or waits
// for the peer to dial back in) while accepted envelopes stay queued.
// Envelopes are sequenced per peer and retained until the receiver acks
// them, so everything unacknowledged is retransmitted on the new
// connection and the receiver deduplicates by sequence number — a link
// flap loses nothing and duplicates nothing. Sequence numbers are scoped
// to a peer-session incarnation (a random ID drawn whenever a peer
// record is created, announced in the hello, and echoed in acks), so
// both a peer process restart and a locally recreated sender — a peer
// declared failed whose record is rebuilt on recovery — reset the
// remote's dedup floor instead of silently colliding with the previous
// session's sequences, and a stale ack from a previous incarnation
// cannot prune undelivered envelopes. Only when the configurable
// suspicion policy is exhausted (dial-attempt budget spent or the
// downtime window passed) does the endpoint emit EventSiteFailed, and if
// the peer later reconnects it emits EventSiteRecovered.
//
// Delivery is lossless. Received messages and control events go through
// one inbox in arrival order, and an event loop that falls behind makes
// the inbox's backlog grow rather than losing what was already acked.
// An envelope is discarded only when its endpoint closes or its peer is
// declared failed (counted as Abandoned).

// maxFrame bounds a frame payload: a corrupt or hostile length prefix
// must not provoke an unbounded allocation.
const maxFrame = 64 << 20

// maxDataBytes bounds the encoded envelope bytes coalesced into one
// data frame, leaving headroom for the kind byte and firstSeq varint so
// the payload never reaches the receiver's maxFrame kill threshold.
const maxDataBytes = maxFrame - 16

// defaultMaxBatch bounds how many envelopes coalesce into one frame.
const defaultMaxBatch = 512

// defaultRetainLimit bounds the per-peer retransmit window (encoded
// envelopes held until acked). It also caps how many envelopes can be in
// flight before the writer must wait for an ack, so it is sized to keep
// the pipe full at loopback message rates.
const defaultRetainLimit = 32768

// dialTimeout bounds a single connection attempt.
const dialTimeout = 10 * time.Second

// defaultWriteTimeout bounds one frame flush; a peer that accepted the
// connection but stopped reading looks like a broken link after this.
const defaultWriteTimeout = 10 * time.Second

// Frame payload kinds.
const (
	frameHello byte = 0x01
	frameData  byte = 0x02
	frameAck   byte = 0x03
)

// SuspicionPolicy controls when a run of connection trouble with a peer
// escalates into an EventSiteFailed (the paper's §3.4 fail-stop verdict).
// Until then the writer keeps redialing with exponential backoff and the
// peer's accepted envelopes stay queued. For every field, zero selects
// the default and a negative value disables that bound.
type SuspicionPolicy struct {
	// MaxAttempts is the dial-attempt budget per outage: after this many
	// consecutive failed dials the peer is declared failed (default 6;
	// negative: unlimited). It does not apply to peers with no dialable
	// address (adopted inbound connections), which are governed solely
	// by Window.
	MaxAttempts int
	// Window is the maximum continuous downtime before the peer is
	// declared failed (default 1s; negative: unlimited).
	Window time.Duration
	// BaseDelay is the first reconnect backoff (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 400ms).
	MaxDelay time.Duration
}

func (p SuspicionPolicy) withDefaults() SuspicionPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 6
	}
	if p.Window == 0 {
		p.Window = time.Second
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 400 * time.Millisecond
	}
	return p
}

// backoff returns the jittered delay before dial attempt attempt+1.
func (p SuspicionPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.MaxDelay {
			break
		}
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Uniform jitter in [d/2, d] decorrelates reconnect storms.
	if half := d / 2; half > 0 {
		d = half + time.Duration(rand.Int63n(int64(half)+1))
	}
	return d
}

// TCPOptions tune a TCP endpoint. The zero value gives the defaults.
type TCPOptions struct {
	// RetainLimit bounds each peer's unacknowledged retransmit window —
	// envelopes stay encoded in memory until the peer acks them, and the
	// writer stops taking from the outbound queue when the window is full
	// (default 32768, which also sets the max envelopes in flight).
	RetainLimit int
	// MaxBatch bounds envelopes per flushed frame (default 512).
	MaxBatch int
	// Suspicion controls reconnect backoff and failure escalation.
	Suspicion SuspicionPolicy
	// ProbeInterval, when positive, makes each peer writer send an empty
	// keepalive frame after that much idle time, so a dead link is
	// noticed (and the suspicion clock started) without waiting for the
	// next protocol message. 0 disables probing.
	ProbeInterval time.Duration
	// AckTimeout is the period of the writer's stale check: a connection
	// on which envelopes sit unacknowledged and the peer's cumulative ack
	// has not advanced for a whole period is presumed to have died
	// silently (a kill can land after a flush reached the socket buffer
	// but before the peer read it, leaving no error on either side), and
	// the writer reconnects to retransmit — within 2×AckTimeout of the
	// flush (default 1s; negative: never). It also sets how long an ack
	// owed to the peer may wait for a data frame to ride on:
	// AckTimeout/8 (125ms when the stale check is disabled), so both ends
	// of a connection should agree on it.
	AckTimeout time.Duration
	// WriteTimeout bounds one frame flush (default 10s; negative: none).
	// The socket deadline is re-armed only when less than half of it
	// remains, so a wedged flush fails after between WriteTimeout/2 and
	// WriteTimeout.
	WriteTimeout time.Duration
	// Faults, when non-nil, injects faults for tests and benchmarks:
	// refused dials, killed connections, dropped or delayed frames.
	Faults *Faults
	// Observer receives the endpoint's resilience counters and debug
	// state. Pass the same Observer as the site's engine so one scrape
	// covers both layers. nil selects obs.Nop() (counters still back
	// Stats; no debug exposition).
	Observer *obs.Observer
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = defaultMaxBatch
	}
	if o.RetainLimit <= 0 {
		o.RetainLimit = defaultRetainLimit
	}
	if o.RetainLimit < o.MaxBatch {
		o.RetainLimit = o.MaxBatch
	}
	o.Suspicion = o.Suspicion.withDefaults()
	if o.WriteTimeout == 0 {
		o.WriteTimeout = defaultWriteTimeout
	}
	if o.AckTimeout == 0 {
		o.AckTimeout = time.Second
	}
	return o
}

// ackDelay is how long an owed ack waits for a data frame to ride on
// before it is sent alone: an eighth of the sender's stale-check period,
// so a one-way flow is acknowledged well inside it.
func (o TCPOptions) ackDelay() time.Duration {
	if o.AckTimeout <= 0 {
		return 125 * time.Millisecond
	}
	return o.AckTimeout / 8
}

// ackBatch is the ack debt (delivered envelopes not yet acknowledged)
// at which the ack stops waiting: a quarter of the retransmit window, so
// a one-way flow can never fill the sender's window.
func (o TCPOptions) ackBatch() uint64 { return uint64(o.RetainLimit / 4) }

// TCPStats is a snapshot of an endpoint's resilience counters.
type TCPStats struct {
	// MessagesDropped and SendQueueDrops are always 0: the transport
	// drops nothing it accepted (Abandoned counts what a failed peer
	// leaves behind). Kept for benchmark/check.go.
	MessagesDropped uint64
	SendQueueDrops  uint64
	// Unencodable counts envelopes dropped because the message could not
	// be encoded.
	Unencodable uint64
	// Abandoned counts accepted envelopes finally discarded when a
	// peer's suspicion budget ran out and it was declared failed.
	Abandoned uint64
	// Reconnects counts connections re-established to previously
	// connected peers.
	Reconnects uint64
	// Retransmits counts unacknowledged envelopes re-sent after a
	// reconnect.
	Retransmits uint64
	// Keepalives counts idle-probe frames sent.
	Keepalives uint64
	// AckFrames counts standalone ack frames: acks flushed without a data
	// frame behind them (acks that ride a data frame are not counted).
	AckFrames uint64
	// Flushes counts socket flushes, one write syscall each.
	Flushes uint64
	// FailureEvents and RecoveryEvents count emitted control events.
	FailureEvents  uint64
	RecoveryEvents uint64
}

// tcpStatCounters holds the endpoint's registered obs counter handles
// (lock-free atomics); TCPStats is a thin snapshot over them.
type tcpStatCounters struct {
	unencodable    *obs.Counter
	abandoned      *obs.Counter
	reconnects     *obs.Counter
	retransmits    *obs.Counter
	keepalives     *obs.Counter
	ackFrames      *obs.Counter
	flushes        *obs.Counter
	failureEvents  *obs.Counter
	recoveryEvents *obs.Counter
}

// newTCPMetrics registers (or fetches) the transport's counters on reg.
func newTCPMetrics(reg *obs.Registry) tcpStatCounters {
	return tcpStatCounters{
		unencodable:    reg.Counter("decaf_transport_unencodable_total", "envelopes dropped because the message could not be encoded"),
		abandoned:      reg.Counter("decaf_transport_abandoned_total", "accepted envelopes discarded when a peer was declared failed"),
		reconnects:     reg.Counter("decaf_transport_reconnects_total", "connections re-established to previously connected peers"),
		retransmits:    reg.Counter("decaf_transport_retransmits_total", "unacknowledged envelopes re-sent after a reconnect"),
		keepalives:     reg.Counter("decaf_transport_keepalives_total", "idle-probe frames sent"),
		ackFrames:      reg.Counter("decaf_transport_ack_frames_total", "standalone ack frames sent (acks riding a data frame excluded)"),
		flushes:        reg.Counter("decaf_transport_flushes_total", "socket flushes"),
		failureEvents:  reg.Counter("decaf_transport_failure_events_total", "EventSiteFailed control events emitted"),
		recoveryEvents: reg.Counter("decaf_transport_recovery_events_total", "EventSiteRecovered control events emitted"),
	}
}

// tcpOut is one queued outbound message.
type tcpOut struct {
	sentAt vtime.VT
	msg    wire.Message
}

// outRec is one sequenced, encoded envelope retained until acked.
type outRec struct {
	seq  uint64
	data []byte
}

// TCP is a real transport over TCP. Every site listens on its own address
// and lazily dials peers from a static address book. Transient connection
// errors are healed by per-peer reconnect; only an exhausted suspicion
// policy surfaces as EventSiteFailed (fail-stop presentation, paper
// §3.4), and a failed peer that comes back surfaces as
// EventSiteRecovered.
type TCP struct {
	site  vtime.SiteID
	ln    net.Listener
	in    *inbox
	opts  TCPOptions
	obs   *obs.Observer
	stats tcpStatCounters

	mu      sync.Mutex
	peers   map[vtime.SiteID]string   // guarded by mu
	conns   map[vtime.SiteID]*tcpPeer // guarded by mu
	inbound []net.Conn                // guarded by mu
	failed  map[vtime.SiteID]bool     // guarded by mu
	closed  bool                      // guarded by mu
	wg      sync.WaitGroup
}

var _ Endpoint = (*TCP)(nil)

// tcpPeer is the outbound side of one peer: an unbounded queue drained by
// a writer goroutine. It also carries the per-peer sequencing state used
// for dedup and acknowledgement of inbound traffic.
type tcpPeer struct {
	t    *TCP
	site vtime.SiteID
	addr string // dial address; empty when adopted from an inbound conn

	queued   chan struct{} // wakes the writer: the queue became non-empty
	kick     chan struct{} // wakes the writer: ack owed, window reopened, conn change
	stop     chan struct{} // closed once the writer must stop; SendBatch then refuses
	stopOnce sync.Once

	// inc identifies this peer session. The writer numbers envelopes
	// from 1, so every recreated peer record (a peer declared failed and
	// later recovered) must draw a fresh incarnation: under the old
	// session's ID the remote's dedup floor would silently swallow the
	// new sequences and its cumulative acks would prune them locally as
	// if delivered. Announced in the hello, echoed back in acks.
	inc uint64

	// ackedSeq is the highest cumulative ack received from the peer for
	// our envelopes (this peer session's incarnation only). The writer
	// sets windowBlocked while it waits on a full retransmit window: only
	// then does an arriving ack wake it.
	ackedSeq      atomic.Uint64
	windowBlocked atomic.Bool

	// ackSent is the cumulative sequence the writer last acknowledged to
	// the peer; recvSeq - ackSent is the ack debt. ackTimer bounds how
	// long a debt waits for a data frame to ride on, staleTimer is the
	// writer's check for a silently dead connection. Both timers belong
	// to the writer; read loops only look at ackTimer's armed flag.
	ackSent    atomic.Uint64
	ackTimer   periodTimer
	staleTimer periodTimer

	// lastSeq mirrors the writer's highest assigned sequence number and
	// retainedCount its retransmit-window depth; both feed scrape-time
	// gauges and the debug state source (the writer's own copies are
	// goroutine-local).
	lastSeq       atomic.Uint64
	retainedCount atomic.Int64

	// deliverMu serializes inbound accept+deliver so per-peer delivery
	// order is exactly the sequence order, even when a dying connection's
	// read loop races a fresh one. remoteInc is the peer incarnation the
	// dedup floor belongs to; recvSeq is the highest envelope sequence
	// delivered from that incarnation (dedup floor and next ack value).
	deliverMu sync.Mutex
	remoteInc uint64 // guarded by deliverMu
	recvSeq   uint64 // guarded by deliverMu

	mu      sync.Mutex
	queue   []tcpOut // guarded by mu; accepted envelopes the writer has not taken yet
	conn    net.Conn // guarded by mu; connection the writer currently owns
	pending net.Conn // guarded by mu; freshly adopted inbound conn awaiting writer pickup
	broken  bool     // guarded by mu; read side observed an error on conn
}

// ListenTCP starts a TCP endpoint for site on addr with default options.
// peers maps every other site to its dialable address. The returned
// endpoint is ready to send and receive.
func ListenTCP(site vtime.SiteID, addr string, peers map[vtime.SiteID]string) (*TCP, error) {
	return ListenTCPOptions(site, addr, peers, TCPOptions{})
}

// ListenTCPOptions is ListenTCP with explicit options.
func ListenTCPOptions(site vtime.SiteID, addr string, peers map[vtime.SiteID]string, opts TCPOptions) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	book := make(map[vtime.SiteID]string, len(peers))
	for s, a := range peers {
		book[s] = a
	}
	observer := opts.Observer
	if observer == nil {
		observer = obs.Nop()
	}
	t := &TCP{
		site:   site,
		ln:     ln,
		peers:  book,
		in:     newInbox(4096),
		opts:   opts.withDefaults(),
		obs:    observer,
		stats:  newTCPMetrics(observer.Metrics()),
		conns:  map[vtime.SiteID]*tcpPeer{},
		failed: map[vtime.SiteID]bool{},
	}
	t.registerObs()
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// registerObs installs the endpoint's scrape-time gauges and its debug
// state source on the observer.
func (t *TCP) registerObs() {
	reg := t.obs.Metrics()
	reg.GaugeFunc("decaf_transport_events_queue_depth", "inbound events awaiting the site's event loop", func() float64 {
		return float64(len(t.in.events))
	})
	t.in.observe(reg)
	reg.GaugeFunc("decaf_transport_send_queue_depth", "outbound envelopes queued across all peers", func() float64 {
		n := 0
		t.mu.Lock()
		for _, p := range t.conns {
			n += p.queueLen()
		}
		t.mu.Unlock()
		return float64(n)
	})
	reg.GaugeFunc("decaf_transport_retained_envelopes", "encoded envelopes held in retransmit windows across all peers", func() float64 {
		n := int64(0)
		t.mu.Lock()
		for _, p := range t.conns {
			n += p.retainedCount.Load()
		}
		t.mu.Unlock()
		return float64(n)
	})
	t.obs.RegisterStateSource("transport", t.debugState)
}

// debugState snapshots per-peer transport state for the debug server.
func (t *TCP) debugState() any {
	t.mu.Lock()
	conns := make([]*tcpPeer, 0, len(t.conns))
	for _, p := range t.conns {
		conns = append(conns, p)
	}
	var failed []string
	for site := range t.failed {
		failed = append(failed, site.String())
	}
	closed := t.closed
	t.mu.Unlock()

	// Outside t.mu: the per-peer reads take each peer's own locks, and a
	// scrape need not hold up Send and the read loops' adoptConn meanwhile.
	peers := map[string]any{}
	for _, p := range conns {
		last := p.lastSeq.Load()
		acked := p.ackedSeq.Load()
		lag := uint64(0)
		if last > acked {
			lag = last - acked
		}
		peers[p.site.String()] = map[string]any{
			"queue_depth":        p.queueLen(),
			"retained_envelopes": p.retainedCount.Load(),
			"last_seq":           last,
			"acked_seq":          acked,
			"ack_lag":            lag,
			"ack_debt":           p.ackDebt(),
			"ack_timer_armed":    p.ackTimer.armed.Load(),
			"stale_timer_armed":  p.staleTimer.armed.Load(),
			"window_blocked":     p.windowBlocked.Load(),
		}
	}
	return map[string]any{
		"site":               t.site.String(),
		"events_queue_depth": len(t.in.events),
		"inbound_backlog":    t.in.backlogLen(),
		"peers":              peers,
		"failed_sites":       failed,
		"closed":             closed,
	}
}

// Addr returns the listener's actual address (useful with ":0").
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

// Site implements Endpoint.
func (t *TCP) Site() vtime.SiteID { return t.site }

// Events implements Endpoint.
func (t *TCP) Events() <-chan Event { return t.in.events }

// Stats returns a snapshot of the endpoint's resilience counters. It is
// a thin read over the obs registry: the same counters serve Stats and
// /metrics.
func (t *TCP) Stats() TCPStats {
	return TCPStats{
		Unencodable:    t.stats.unencodable.Value(),
		Abandoned:      t.stats.abandoned.Value(),
		Reconnects:     t.stats.reconnects.Value(),
		Retransmits:    t.stats.retransmits.Value(),
		Keepalives:     t.stats.keepalives.Value(),
		AckFrames:      t.stats.ackFrames.Value(),
		Flushes:        t.stats.flushes.Value(),
		FailureEvents:  t.stats.failureEvents.Value(),
		RecoveryEvents: t.stats.recoveryEvents.Value(),
	}
}

// SetPeerAddr adds (or replaces) a peer's dial address in the address
// book. Peers adopted before the address was known keep reconnecting via
// inbound connections only.
func (t *TCP) SetPeerAddr(site vtime.SiteID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[site] = addr
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound = append(t.inbound, conn)
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// framePool recycles frame payload buffers across writer goroutines and
// read loops.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// readLoop decodes frames from one connection until error. The hello
// frame (or, failing that, the first envelope) identifies the peer; the
// connection is then registered for outbound sends, so a site can reply
// to peers that are not in its static address book (invitees dial the
// inviter; replies reuse the same connection). A read error is reported
// to the peer's writer, which owns the reconnect/suspicion decision.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	var from vtime.SiteID
	var peer *tcpPeer
	var connInc uint64 // peer incarnation announced on this connection
	seen := false
	defer func() {
		if !seen {
			return
		}
		t.opts.Faults.untrack(from, conn)
		if peer != nil {
			peer.noteBroken(conn)
		}
	}()
	identify := func(site vtime.SiteID) {
		if seen {
			return
		}
		from, seen = site, true
		peer = t.adoptConn(site, conn)
		t.opts.Faults.track(site, conn)
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	var hdr [4]byte
	bufp := framePool.Get().(*[]byte)
	defer framePool.Put(bufp)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 {
			continue // keepalive probe
		}
		if n > maxFrame {
			return
		}
		if cap(*bufp) < int(n) {
			*bufp = make([]byte, n)
		}
		payload := (*bufp)[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		kind, body := payload[0], payload[1:]
		switch kind {
		case frameHello:
			site, used := binary.Uvarint(body)
			if used <= 0 {
				return
			}
			inc, used2 := binary.Uvarint(body[used:])
			if used2 <= 0 {
				return
			}
			connInc = inc
			identify(vtime.SiteID(site))
			if peer != nil {
				peer.observeIncarnation(connInc)
			}
		case frameAck:
			inc, used := binary.Uvarint(body)
			if used <= 0 {
				return
			}
			cum, used2 := binary.Uvarint(body[used:])
			if used2 <= 0 || !seen {
				return
			}
			if peer != nil && inc == peer.inc {
				peer.handleAck(cum)
			}
		case frameData:
			firstSeq, used := binary.Uvarint(body)
			if used <= 0 {
				return
			}
			rest := body[used:]
			i := uint64(0)
			delivered := uint64(0) // highest sequence this frame delivered
			for len(rest) > 0 {
				envFrom, sentAt, msg, used, err := decodeEnvelope(rest)
				if err != nil {
					return
				}
				rest = rest[used:]
				identify(envFrom)
				seq := firstSeq + i
				i++
				if peer != nil {
					if peer.acceptAndDeliver(connInc, seq,
						Event{Kind: EventMessage, From: envFrom, SentAt: sentAt, Msg: msg}) {
						delivered = seq
					}
				}
			}
			if delivered > 0 {
				peer.ackOwed(delivered)
			}
		default:
			return // protocol error
		}
	}
}

// appendEnvelope encodes one envelope onto the frame buffer.
func appendEnvelope(b []byte, from vtime.SiteID, sentAt vtime.VT, msg wire.Message) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(from))
	b = binary.AppendUvarint(b, sentAt.Time)
	b = binary.AppendUvarint(b, uint64(sentAt.Site))
	return wire.AppendMessage(b, msg)
}

// decodeEnvelope decodes one envelope from the front of b.
func decodeEnvelope(b []byte) (from vtime.SiteID, sentAt vtime.VT, msg wire.Message, used int, err error) {
	off := 0
	next := func() uint64 {
		if err != nil {
			return 0
		}
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			err = errors.New("transport: truncated envelope")
			return 0
		}
		off += n
		return v
	}
	from = vtime.SiteID(next())
	sentAt.Time = next()
	sentAt.Site = vtime.SiteID(next())
	if err != nil {
		return 0, vtime.VT{}, nil, 0, err
	}
	msg, n, err := wire.DecodeMessage(b[off:])
	if err != nil {
		return 0, vtime.VT{}, nil, 0, err
	}
	return from, sentAt, msg, off + n, nil
}

// adoptConn registers an inbound connection from a now-identified peer:
// it creates the peer record if needed, offers the connection to the
// peer's writer as a reconnect candidate, and un-suspects a peer
// previously declared failed (emitting EventSiteRecovered).
func (t *TCP) adoptConn(from vtime.SiteID, conn net.Conn) *tcpPeer {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	recovered := false
	if t.failed[from] {
		delete(t.failed, from)
		recovered = true
	}
	p, ok := t.conns[from]
	if !ok {
		p = t.newPeer(from, t.peers[from])
		t.conns[from] = p
		p.offerConn(conn)
		t.wg.Add(1)
		go p.writeLoop()
	} else {
		p.offerConn(conn)
	}
	if recovered {
		t.stats.recoveryEvents.Add(1)
		// Under t.mu, like reportFailure's: events queue in the order the
		// failed set changes.
		t.in.deliver(Event{Kind: EventSiteRecovered, Failed: from})
	}
	t.mu.Unlock()
	return p
}

func (t *TCP) newPeer(site vtime.SiteID, addr string) *tcpPeer {
	return &tcpPeer{
		t:      t,
		site:   site,
		addr:   addr,
		inc:    randInc(),
		queued: make(chan struct{}, 1),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
}

// randInc draws a nonzero session incarnation (zero means "none yet" on
// the receive side).
func randInc() uint64 {
	for {
		if inc := rand.Uint64(); inc != 0 {
			return inc
		}
	}
}

// reportFailure emits a single EventSiteFailed per peer and tears down
// its sender. It is only called once the suspicion policy is exhausted.
func (t *TCP) reportFailure(site vtime.SiteID) {
	t.mu.Lock()
	if t.closed || t.failed[site] {
		t.mu.Unlock()
		return
	}
	t.failed[site] = true
	p, ok := t.conns[site]
	if ok {
		delete(t.conns, site)
	}
	t.stats.failureEvents.Add(1)
	// Under t.mu, before the sender is torn down: a peer that redials as
	// soon as its link closes is reported failed before recovered.
	t.in.deliver(Event{Kind: EventSiteFailed, Failed: site})
	t.mu.Unlock()
	if ok {
		p.shutdown()
	}
}

// shutdown stops the peer's writer and closes its connections.
func (p *tcpPeer) shutdown() {
	p.stopSending()
	p.mu.Lock()
	conn, pending := p.conn, p.pending
	p.conn, p.pending = nil, nil
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if pending != nil {
		pending.Close()
	}
}

// offerConn hands a fresh inbound connection to the writer as a
// reconnect candidate. The writer only picks it up when its current
// connection is gone or broken, so a healthy link is never churned.
func (p *tcpPeer) offerConn(conn net.Conn) {
	p.mu.Lock()
	p.pending = conn
	p.mu.Unlock()
	p.kickWriter()
}

// noteBroken records that the read side saw an error on conn and wakes
// the writer to run its reconnect/suspicion policy.
func (p *tcpPeer) noteBroken(conn net.Conn) {
	p.mu.Lock()
	if p.conn == conn {
		p.broken = true
	}
	if p.pending == conn {
		p.pending = nil
	}
	p.mu.Unlock()
	p.kickWriter()
}

func (p *tcpPeer) kickWriter() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// observeIncarnation records the peer incarnation announced by a hello.
// A new incarnation (peer process restart) resets the dedup floor: the
// fresh endpoint numbers its envelopes from 1 again.
func (p *tcpPeer) observeIncarnation(inc uint64) {
	p.deliverMu.Lock()
	if p.remoteInc != inc {
		p.remoteInc = inc
		p.recvSeq = 0
	}
	p.deliverMu.Unlock()
	p.kickWriter()
}

// acceptAndDeliver delivers envelope seq from the peer unless it is a
// duplicate (a retransmit after reconnect) or arrived on a connection
// from a superseded incarnation. Accept and deliver are one critical
// section so delivery order is exactly sequence order even when two read
// loops (a dying connection and its replacement) race. Sequence gaps are
// accepted: on a live TCP connection they cannot occur, and the retained
// window guarantees everything below an accepted sequence was already
// delivered.
func (p *tcpPeer) acceptAndDeliver(connInc, seq uint64, ev Event) bool {
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	if connInc != p.remoteInc || seq <= p.recvSeq {
		return false
	}
	p.recvSeq = seq
	p.t.in.deliver(ev)
	return true
}

// ackDebt is the number of envelopes delivered from the peer and not yet
// acknowledged to it.
func (p *tcpPeer) ackDebt() uint64 {
	_, recv := p.recvState()
	if sent := p.ackSent.Load(); recv > sent {
		return recv - sent
	}
	return 0
}

// recvState snapshots the ack the writer owes the peer: the incarnation
// whose envelopes we have been delivering and the cumulative sequence.
func (p *tcpPeer) recvState() (inc, seq uint64) {
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	return p.remoteInc, p.recvSeq
}

// ackOwed is called by a read loop that delivered envelopes up to seq.
// The ack normally rides the writer's next data frame, and the armed ack
// timer bounds the wait, so the writer is woken only to arm that timer
// or because the debt has reached ackBatch.
func (p *tcpPeer) ackOwed(seq uint64) {
	sent := p.ackSent.Load()
	if !p.ackTimer.armed.Load() || (seq > sent && seq-sent >= p.t.opts.ackBatch()) {
		p.kickWriter()
	}
}

// handleAck applies a cumulative ack from the peer for our envelopes.
// The writer prunes its window on its next wake-up for real work; it is
// woken here only when a full window is what it waits on.
func (p *tcpPeer) handleAck(cum uint64) {
	for {
		cur := p.ackedSeq.Load()
		if cum <= cur {
			return
		}
		if p.ackedSeq.CompareAndSwap(cur, cum) {
			if p.windowBlocked.Load() {
				p.kickWriter()
			}
			return
		}
	}
}

// periodTimer is a reusable timer that is armed at most once per period:
// arm does nothing while a period is running, so a hot path can ask for
// it on every pass at the cost of one flag test. arm, fired and disarm
// belong to the goroutine that receives from C; armed may be read from
// any goroutine.
type periodTimer struct {
	t     *time.Timer
	armed atomic.Bool
}

// arm starts a period of d unless one is running.
func (pt *periodTimer) arm(d time.Duration) {
	if pt.armed.Load() {
		return
	}
	if pt.t == nil {
		pt.t = time.NewTimer(d)
	} else {
		pt.t.Reset(d) // the last period's tick was received (fired) or drained (disarm)
	}
	pt.armed.Store(true)
}

// C is the channel the period's end arrives on (nil before the first arm).
func (pt *periodTimer) C() <-chan time.Time {
	if pt.t == nil {
		return nil
	}
	return pt.t.C
}

// fired records that the period's tick was received from C.
func (pt *periodTimer) fired() { pt.armed.Store(false) }

// disarm cancels a running period.
func (pt *periodTimer) disarm() {
	if !pt.armed.Load() {
		return
	}
	if !pt.t.Stop() {
		select {
		case <-pt.t.C:
		default:
		}
	}
	pt.armed.Store(false)
}

// peerFor returns (creating if necessary) the sender record for site.
// No dialing happens on the caller's goroutine; the writer goroutine
// establishes the connection.
func (t *TCP) peerFor(site vtime.SiteID) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.failed[site] {
		return nil, ErrSiteDown
	}
	if p, ok := t.conns[site]; ok {
		return p, nil
	}
	addr, ok := t.peers[site]
	if !ok {
		return nil, ErrUnknownSite
	}
	p := t.newPeer(site, addr)
	t.conns[site] = p
	t.wg.Add(1)
	go p.writeLoop()
	return p, nil
}

// Send implements Endpoint. It only enqueues: the caller's goroutine
// never blocks on a dial or a socket write.
func (t *TCP) Send(to vtime.SiteID, sentAt vtime.VT, msg wire.Message) error {
	return t.SendBatch(to, sentAt, []wire.Message{msg})
}

// SendBatch implements BatchSender: one peer lookup and one queue lock
// for the whole batch. The queue is unbounded, so nothing is refused
// while the peer is live; a peer whose writer has stopped (declared
// failed, or the endpoint closed) returns ErrSiteDown.
func (t *TCP) SendBatch(to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error {
	p, err := t.peerFor(to)
	if err != nil {
		return err
	}
	p.mu.Lock()
	select {
	case <-p.stop:
		p.mu.Unlock()
		return ErrSiteDown
	default:
	}
	wake := len(p.queue) == 0
	for _, msg := range msgs {
		p.queue = append(p.queue, tcpOut{sentAt: sentAt, msg: msg})
	}
	p.mu.Unlock()
	if wake {
		select {
		case p.queued <- struct{}{}:
		default:
		}
	}
	return nil
}

// stopSending stops the writer and makes SendBatch refuse from now on.
func (p *tcpPeer) stopSending() { p.stopOnce.Do(func() { close(p.stop) }) }

func (p *tcpPeer) queueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// startReadLoop launches a read loop for a dialed connection (peers
// answer on the connection the request came in on). Reports false when
// the endpoint is closed.
func (t *TCP) startReadLoop(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.wg.Add(1)
	go t.readLoop(conn)
	return true
}

// errDialRefused is the injected-fault dial error.
var errDialRefused = errors.New("transport: dial refused (injected fault)")

// establish obtains a connection for the writer: a freshly adopted
// inbound connection wins, otherwise the peer is dialed with exponential
// backoff + jitter until the suspicion policy is exhausted. Returns
// (nil, true) when the peer was shut down, (nil, false) when the policy
// says to declare the peer failed.
func (p *tcpPeer) establish() (net.Conn, bool) {
	t := p.t
	pol := t.opts.Suspicion
	downSince := time.Now()
	attempt := 0
	for {
		// A connection the peer dialed to us beats redialing.
		p.mu.Lock()
		if c := p.pending; c != nil {
			p.pending = nil
			p.conn = c
			p.broken = false
			p.mu.Unlock()
			return c, false
		}
		p.mu.Unlock()
		select {
		case <-p.stop:
			return nil, true
		default:
		}
		if p.addr != "" {
			attempt++
			timeout := dialTimeout
			if pol.Window >= 0 {
				if remain := pol.Window - time.Since(downSince); remain < timeout {
					timeout = remain
				}
			}
			var conn net.Conn
			err := errDialRefused
			if !t.opts.Faults.failDial(p.site) && timeout > 0 {
				conn, err = net.DialTimeout("tcp", p.addr, timeout)
			}
			if err == nil {
				p.mu.Lock()
				select {
				case <-p.stop:
					p.mu.Unlock()
					conn.Close()
					return nil, true
				default:
				}
				p.conn = conn
				p.broken = false
				p.mu.Unlock()
				if !t.startReadLoop(conn) {
					conn.Close()
					return nil, true
				}
				return conn, false
			}
			if pol.MaxAttempts >= 0 && attempt >= pol.MaxAttempts {
				return nil, false
			}
		}
		delay := pol.backoff(attempt)
		if pol.Window >= 0 {
			remain := pol.Window - time.Since(downSince)
			if remain <= 0 {
				return nil, false
			}
			if delay > remain {
				delay = remain
			}
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-p.kick:
			timer.Stop()
		case <-p.stop:
			timer.Stop()
			return nil, true
		}
	}
}

// writeLoop drains the peer queue into batched, sequenced frames, taking
// from it only while the retransmit window has room. Every envelope is
// retained until the peer acknowledges it; on a connection
// error the loop reconnects (establish) and retransmits the
// unacknowledged tail, so accepted envelopes survive link flaps. Only an
// exhausted suspicion policy abandons the queue and declares the peer
// failed.
//
// The loop wakes for work, not for bookkeeping: the ack it owes the peer
// rides its next data frame (see ackNow below for when it goes alone),
// acks it receives are applied when it next has something to send, and
// its timers and write deadline persist across iterations.
func (p *tcpPeer) writeLoop() {
	t := p.t
	defer t.wg.Done()
	opts := t.opts
	retainLimit := opts.RetainLimit
	ackDelay, ackBatch := opts.ackDelay(), opts.ackBatch()
	defer p.ackTimer.disarm()
	defer p.staleTimer.disarm()

	var (
		retained      []outRec
		sentIdx       int
		nextSeq       uint64 = 1
		ackInc        uint64 // peer incarnation acked on this connection (0: none yet)
		staleMark     uint64 // ackedSeq when staleTimer was armed
		deadline      time.Time
		conn          net.Conn
		bw            *bufio.Writer
		everConnected bool
		hdr           [4]byte
		// Why the last idle wait ended; consumed by the flush that follows.
		ackFired, sendProbe bool
	)

	var probeCh <-chan time.Time
	var probeTimer *time.Timer
	if opts.ProbeInterval > 0 {
		probeTimer = time.NewTimer(opts.ProbeInterval)
		defer probeTimer.Stop()
		probeCh = probeTimer.C
	}
	resetProbe := func() {
		if probeTimer == nil {
			return
		}
		if !probeTimer.Stop() {
			select {
			case <-probeTimer.C:
			default:
			}
		}
		probeTimer.Reset(opts.ProbeInterval)
	}

	// dropConn discards the current connection after an error.
	dropConn := func() {
		if conn == nil {
			return
		}
		opts.Faults.untrack(p.site, conn)
		conn.Close()
		p.mu.Lock()
		if p.conn == conn {
			p.conn = nil
		}
		p.broken = false
		p.mu.Unlock()
		conn, bw = nil, nil
	}

	// abandon counts everything still accepted but undeliverable, then
	// escalates to the fail-stop verdict. SendBatch refuses first, so the
	// count is final.
	abandon := func() {
		p.stopSending()
		p.mu.Lock()
		n := uint64(len(retained) + len(p.queue))
		p.queue = nil
		p.mu.Unlock()
		if n > 0 {
			t.stats.abandoned.Add(n)
		}
		t.reportFailure(p.site)
	}

	// enqueueOut sequences and encodes one accepted envelope; only an
	// encodable envelope consumes a sequence number, so retained stays
	// seq-contiguous. An envelope too large for a single frame can never
	// be transmitted (the receiver kills any connection carrying a frame
	// over maxFrame, and a retained record would be resent verbatim
	// after every reconnect — a livelock), so it counts as unencodable.
	enqueueOut := func(e tcpOut) {
		data, err := appendEnvelope(nil, t.site, e.sentAt, e.msg)
		if err != nil || len(data) > maxDataBytes {
			t.stats.unencodable.Add(1)
			return
		}
		retained = append(retained, outRec{seq: nextSeq, data: data})
		p.lastSeq.Store(nextSeq)
		nextSeq++
		p.retainedCount.Store(int64(len(retained)))
	}

	// take moves queued envelopes into the retransmit window: no more than
	// keep it within RetainLimit and the unsent tail within one frame. The
	// rest stays queued. Encoding happens outside p.mu, and the two
	// buffers swap places so a drained queue costs no allocation.
	var taken []tcpOut
	take := func() {
		n := min(retainLimit-len(retained), opts.MaxBatch-(len(retained)-sentIdx))
		if n <= 0 {
			return
		}
		p.mu.Lock()
		if len(p.queue) <= n {
			taken, p.queue = p.queue, taken[:0]
		} else {
			taken = append(taken[:0], p.queue[:n]...)
			clear(p.queue[:n])
			p.queue = p.queue[n:]
		}
		p.mu.Unlock()
		for i, e := range taken {
			enqueueOut(e)
			taken[i] = tcpOut{}
		}
	}

	pruneAcked := func() {
		a := p.ackedSeq.Load()
		i := 0
		for i < len(retained) && retained[i].seq <= a {
			i++
		}
		if i > 0 {
			retained = retained[i:]
			if sentIdx -= i; sentIdx < 0 {
				sentIdx = 0
			}
			p.retainedCount.Store(int64(len(retained)))
		}
	}

	writeFrame := func(parts ...[]byte) bool {
		n := 0
		for _, part := range parts {
			n += len(part)
		}
		binary.BigEndian.PutUint32(hdr[:], uint32(n))
		if _, err := bw.Write(hdr[:]); err != nil {
			return false
		}
		for _, part := range parts {
			if _, err := bw.Write(part); err != nil {
				return false
			}
		}
		return true
	}

	// flush pushes the buffered frames to the socket. The write deadline
	// is re-armed only when less than half of it remains, so a wedged
	// flush still fails within WriteTimeout without a deadline update per
	// flush.
	flush := func() bool {
		if bw.Buffered() == 0 {
			return true // an injected drop took the only frame
		}
		if opts.WriteTimeout > 0 {
			if now := time.Now(); deadline.Sub(now) < opts.WriteTimeout/2 {
				deadline = now.Add(opts.WriteTimeout)
				conn.SetWriteDeadline(deadline)
			}
		}
		t.stats.flushes.Add(1)
		return bw.Flush() == nil
	}

	isBroken := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.broken
	}

	var scratch [16]byte
	for {
		if conn == nil || isBroken() {
			dropConn()
			c, stopped := p.establish()
			if stopped {
				return
			}
			if c == nil {
				abandon()
				return
			}
			conn = c
			opts.Faults.track(p.site, conn)
			bw = bufio.NewWriterSize(conn, 64<<10)
			if everConnected {
				t.stats.reconnects.Add(1)
				if len(retained) > 0 {
					t.stats.retransmits.Add(uint64(len(retained)))
				}
			}
			everConnected = true
			sentIdx = 0 // the whole unacked tail rides the new connection
			// The ack last written may have died with the old connection,
			// and retransmits the peer deduplicates raise no new debt: every
			// connection starts with a cumulative ack.
			ackInc = 0
			deadline = time.Time{}
			p.staleTimer.disarm() // the retransmit gets a whole period
			hello := append(scratch[:0], frameHello)
			hello = binary.AppendUvarint(hello, uint64(t.site))
			hello = binary.AppendUvarint(hello, p.inc)
			if !writeFrame(hello) || !flush() {
				dropConn()
				continue
			}
			resetProbe()
		}

		pruneAcked()
		take()
		rInc, recv := p.recvState()
		// An ack is due when the peer has not heard of everything we
		// delivered. It rides the next data frame; it goes alone (ackNow)
		// when the ack timer fired, when the debt reached ackBatch, or
		// when this connection has not acked the peer's incarnation yet.
		ackSent := p.ackSent.Load() // only this goroutine stores it
		ackDue := rInc != 0 && (rInc != ackInc || recv > ackSent)
		ackNow := ackDue && (rInc != ackInc || ackFired || recv-ackSent >= ackBatch)
		if sentIdx == len(retained) && !ackNow && !sendProbe {
			// Idle: block until there is something to do.
			ackFired = false
			if ackDue {
				p.ackTimer.arm(ackDelay)
			}
			// If envelopes sit unacknowledged, check once per AckTimeout
			// that the peer's ack has moved: it acks within its ack delay,
			// so a period without progress means the connection silently
			// died — reconnect and retransmit.
			if len(retained) > 0 && opts.AckTimeout > 0 && !p.staleTimer.armed.Load() {
				staleMark = p.ackedSeq.Load()
				p.staleTimer.arm(opts.AckTimeout)
			}
			// take stops at a full retransmit window: it must drain via
			// acks (or be found stale) before the queue moves again, or
			// retained would grow unboundedly against a peer that reads
			// frames but withholds acks.
			if len(retained) >= retainLimit {
				// Ask handleAck for a wake-up, then look again: an ack that
				// landed before the flag was up woke nobody.
				p.windowBlocked.Store(true)
				if pruneAcked(); len(retained) < retainLimit {
					p.windowBlocked.Store(false)
					continue
				}
			}
			stale := false
			select {
			case <-p.queued:
			case <-p.kick:
			case <-probeCh:
				sendProbe = true
			case <-p.ackTimer.C():
				p.ackTimer.fired()
				ackFired = true
			case <-p.staleTimer.C():
				p.staleTimer.fired()
				pruneAcked()
				stale = len(retained) > 0 && p.ackedSeq.Load() == staleMark
			case <-p.stop:
				return
			}
			p.windowBlocked.Store(false)
			if stale {
				dropConn()
			}
			continue
		}
		end := batchEnd(retained, sentIdx, opts.MaxBatch, maxDataBytes)
		if d := opts.Faults.frameDelay(); d > 0 {
			time.Sleep(d)
		}
		ok := true
		if ackDue {
			ack := append(scratch[:0], frameAck)
			ack = binary.AppendUvarint(ack, rInc)
			ack = binary.AppendUvarint(ack, recv)
			ok = writeFrame(ack)
			if sentIdx == end {
				t.stats.ackFrames.Add(1)
			}
		}
		if ok && sentIdx < end {
			if opts.Faults.dropFrame(p.site) {
				// Injected loss: the frame vanishes in the "network", but
				// the envelopes stay retained until acked and ride the
				// next reconnect.
			} else {
				head := append(scratch[:0], frameData)
				head = binary.AppendUvarint(head, retained[sentIdx].seq)
				ok = writeFrame(buildParts(head, retained[sentIdx:end])...)
			}
		}
		if ok && sendProbe && sentIdx == end && !ackDue {
			ok = writeFrame() // empty keepalive frame
			t.stats.keepalives.Add(1)
		}
		if !ok || !flush() {
			dropConn()
			continue // retained is intact; establish retransmits it
		}
		if ackDue {
			ackInc = rInc
			p.ackSent.Store(recv)
		}
		sentIdx = end
		ackFired, sendProbe = false, false
		resetProbe()
	}
}

// batchEnd returns the exclusive end index of the next data frame's
// records: at most maxBatch envelopes starting at sentIdx, holding at
// most maxBytes of encoded envelope data, so the frame payload stays
// under the receiver's maxFrame bound. The first record is always
// admitted (enqueueOut guarantees no single record exceeds
// maxDataBytes), so a full window still makes progress.
func batchEnd(retained []outRec, sentIdx, maxBatch, maxBytes int) int {
	end, bytes := sentIdx, 0
	for end < len(retained) && end-sentIdx < maxBatch {
		bytes += len(retained[end].data)
		if bytes > maxBytes && end > sentIdx {
			break
		}
		end++
	}
	return end
}

// buildParts assembles the writev-style part list for one data frame.
func buildParts(head []byte, recs []outRec) [][]byte {
	parts := make([][]byte, 0, len(recs)+1)
	parts = append(parts, head)
	for _, r := range recs {
		parts = append(parts, r.data)
	}
	return parts
}

// Close implements Endpoint: stops the listener, closes all connections,
// and closes the inbox after all loops exit.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*tcpPeer, 0, len(t.conns))
	for _, p := range t.conns {
		conns = append(conns, p)
	}
	t.conns = map[vtime.SiteID]*tcpPeer{}
	inbound := t.inbound
	t.inbound = nil
	t.mu.Unlock()

	err := t.ln.Close()
	for _, p := range conns {
		p.shutdown()
	}
	for _, c := range inbound {
		c.Close()
	}
	t.wg.Wait()
	t.in.close()
	return err
}
