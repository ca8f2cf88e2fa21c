// Package decaf is a Go implementation of DECAF — the Distributed,
// Extensible Collaborative Application Framework of Strom, Banavar,
// Miller, Prakash and Ward, "Concurrency Control and View Notification
// Algorithms for Collaborative Replicated Objects" (ICDCS 1997 / IEEE
// Trans. Computers 47(4), 1998).
//
// DECAF extends the Model-View-Controller paradigm for synchronous
// groupware. Applications hold typed model objects (Int, Float, String,
// Bool, List, Tuple, Association) that can join replica relationships
// with model objects in other applications. Transactions atomically read
// and update several model objects; updates propagate optimistically to
// all replicas and are validated at each object's primary copy using
// read-committed (RC), read-latest (RL) and no-conflict (NC) guesses.
// Conflicted transactions abort and re-execute automatically. Views
// attach to model objects and are notified with consistent snapshots —
// optimistically (immediately, possibly of uncommitted state, with a
// later commit notification) or pessimistically (only committed state, in
// monotonic order).
//
// A minimal two-party session:
//
//	net := decaf.NewSimNetwork(decaf.SimConfig{Latency: 5 * time.Millisecond})
//	alice, _ := decaf.Dial(net, 1)
//	bob, _ := decaf.Dial(net, 2)
//	defer alice.Close()
//	defer bob.Close()
//
//	counterA, _ := alice.NewInt("counter")
//	counterB, _ := bob.NewInt("counter")
//	bob.JoinObject(counterB, 1, counterA.Ref().ID()).Wait()
//
//	alice.ExecuteFunc(func(tx *decaf.Tx) error {
//		counterA.Set(tx, counterA.Value(tx)+1)
//		return nil
//	}).Wait()
package decaf

import (
	"log/slog"
	"time"

	"decaf/internal/engine"
	"decaf/internal/obs"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// SiteID identifies one collaborating application instance. IDs must be
// unique across a collaboration and nonzero.
type SiteID = vtime.SiteID

// VT is a virtual time: a Lamport clock value with a site tie-breaker.
// Transactions and snapshots are totally ordered by VT.
type VT = vtime.VT

// Stats are a site's monotonic event counters.
type Stats = engine.Stats

// Result is the final outcome of a transaction.
type Result = engine.Result

// Options tune a Site.
type Options struct {
	// Logger receives engine debug logs (nil disables).
	Logger *slog.Logger
	// MaxRetries bounds automatic re-execution after conflicts
	// (default engine.DefaultMaxRetries).
	MaxRetries int
	// RetryDelay inserts a pause before re-executing a conflicted
	// transaction (default: immediate, as in the paper).
	RetryDelay time.Duration
	// Observer receives the site's metrics, VT-stamped trace events, and
	// debug state (nil: counters still count, tracing and wall-clock
	// timing are off). Share one Observer with the site's transport
	// (TCPOptions.Observer) so a single ServeDebug scrape covers both.
	Observer *Observer
}

// Observer bundles a site's metrics registry, transaction trace ring,
// and debug state sources. Create with NewObserver, pass it via
// Options.Observer (and TCPOptions.Observer), and expose it with
// ServeDebug.
type Observer = obs.Observer

// ObserverConfig tunes an Observer; see obs.Config.
type ObserverConfig = obs.Config

// Metrics is a registry of named counters, gauges, and histograms with
// a Prometheus text exposition.
type Metrics = obs.Registry

// DebugServer is a running debug HTTP server; Close releases it.
type DebugServer = obs.DebugServer

// NewObserver creates an Observer with tracing and timing enabled.
func NewObserver() *Observer { return obs.New() }

// NewObserverConfig creates an Observer with explicit configuration.
func NewObserverConfig(cfg ObserverConfig) *Observer { return obs.NewWithConfig(cfg) }

// ServeDebug serves an Observer over HTTP on addr: Prometheus text
// metrics at /metrics, a JSON state dump at /debug/decaf/state,
// VT-stamped transaction spans at /debug/decaf/trace, and pprof under
// /debug/pprof/.
func ServeDebug(addr string, o *Observer) (*DebugServer, error) { return obs.Serve(addr, o) }

// Site is a collaborating application instance: it hosts model objects,
// runs transactions, exchanges update and confirmation messages with peer
// sites, and drives view notifications. Create one with NewSite or Dial
// and release it with Close.
type Site struct {
	eng *engine.Site
}

// NewSite attaches a site to a transport endpoint. The site is started
// and ready for use.
func NewSite(ep transport.Endpoint, opts Options) *Site {
	s := &Site{eng: engine.NewSite(ep, engine.Options{
		Logger:     opts.Logger,
		MaxRetries: opts.MaxRetries,
		RetryDelay: opts.RetryDelay,
		Observer:   opts.Observer,
	})}
	s.eng.Start()
	return s
}

// Dial attaches a new site with the given ID to a simulated network.
func Dial(net *SimNetwork, id SiteID) (*Site, error) {
	ep, err := net.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return NewSite(ep, Options{}), nil
}

// DialOptions is Dial with explicit Options.
func DialOptions(net *SimNetwork, id SiteID, opts Options) (*Site, error) {
	ep, err := net.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	if opts.Observer != nil {
		net.inner.Observe(id, opts.Observer)
	}
	return NewSite(ep, opts), nil
}

// ID returns the site identifier.
func (s *Site) ID() SiteID { return s.eng.ID() }

// Stats returns a copy of the site's counters.
func (s *Site) Stats() Stats { return s.eng.Stats() }

// Metrics returns the site's metrics registry (live — values keep
// moving as the site runs). Sites created without an Observer get a
// private registry backing Stats.
func (s *Site) Metrics() *Metrics { return s.eng.Observer().Metrics() }

// Observer returns the site's observability bundle.
func (s *Site) Observer() *Observer { return s.eng.Observer() }

// Close stops the site. In-flight transactions are abandoned.
func (s *Site) Close() { s.eng.Stop() }

// Engine exposes the underlying engine site for advanced integrations
// (benchmarks, protocol inspection). Most applications never need it.
func (s *Site) Engine() *engine.Site { return s.eng }

// ---------------------------------------------------------------------------
// Simulated network re-exports.
// ---------------------------------------------------------------------------

// SimConfig parameterizes a simulated network: Latency is the one-way
// point-to-point message latency (the paper's t), Jitter an added uniform
// random delay, Seed its source.
type SimConfig struct {
	Latency   time.Duration
	Jitter    time.Duration
	Seed      int64
	LatencyFn func(from, to SiteID) time.Duration
}

// SimNetwork is an in-memory network with configurable latency, used for
// simulations, tests, and the paper's experiments.
type SimNetwork struct {
	inner *transport.Network
}

// NewSimNetwork creates a simulated network.
func NewSimNetwork(cfg SimConfig) *SimNetwork {
	return &SimNetwork{inner: transport.NewNetwork(transport.Config{
		Latency:   cfg.Latency,
		Jitter:    cfg.Jitter,
		Seed:      cfg.Seed,
		LatencyFn: cfg.LatencyFn,
	})}
}

// Kill simulates a fail-stop crash of a site: survivors receive a failure
// notification and run the paper's §3.4 recovery.
func (n *SimNetwork) Kill(id SiteID) { n.inner.Kill(id) }

// Partition silently blocks traffic between two sites; Heal restores it.
func (n *SimNetwork) Partition(a, b SiteID) { n.inner.Partition(a, b) }

// Heal removes a partition.
func (n *SimNetwork) Heal(a, b SiteID) { n.inner.Heal(a, b) }

// Close shuts the network down.
func (n *SimNetwork) Close() { n.inner.Close() }

// ListenTCP starts a real TCP endpoint for site on addr; peers maps other
// site IDs to dialable addresses. Pass the result to NewSite.
func ListenTCP(site SiteID, addr string, peers map[SiteID]string) (*transport.TCP, error) {
	return transport.ListenTCP(site, addr, peers)
}

// TCPOptions tunes a TCP endpoint: retransmit window and batch sizes,
// the suspicion policy governing reconnect backoff and failure
// escalation, keepalive probing, and fault injection. Queues are
// unbounded: nothing a live peer accepted is dropped. See
// transport.TCPOptions.
type TCPOptions = transport.TCPOptions

// SuspicionPolicy controls when connection trouble with a peer escalates
// into a fail-stop verdict. See transport.SuspicionPolicy.
type SuspicionPolicy = transport.SuspicionPolicy

// Faults injects network faults (refused dials, killed connections,
// dropped or delayed frames) for tests and benchmarks.
type Faults = transport.Faults

// NewFaults returns an empty fault-injection harness.
func NewFaults() *Faults { return transport.NewFaults() }

// ListenTCPOptions is ListenTCP with explicit options.
func ListenTCPOptions(site SiteID, addr string, peers map[SiteID]string, opts TCPOptions) (*transport.TCP, error) {
	return transport.ListenTCPOptions(site, addr, peers, opts)
}

// ---------------------------------------------------------------------------
// Transactions.
// ---------------------------------------------------------------------------

// Tx is the execution context passed to a transaction's Execute method.
// All model-object reads and writes go through it so the engine can track
// the read and write sets for optimistic concurrency control. A Tx is
// valid only for the duration of Execute.
type Tx struct {
	inner *engine.Tx
}

// VT returns the transaction's virtual time.
func (tx *Tx) VT() VT { return tx.inner.VT() }

// Transaction is a user-defined atomic action, the analogue of the
// paper's transaction objects (§2.4): Execute may read and write any
// model objects of its site; its effects commit or abort atomically.
// Returning an error (or panicking) aborts without retry; concurrency
// conflicts abort and re-execute automatically.
type Transaction interface {
	Execute(tx *Tx) error
}

// AbortHandler is optionally implemented by Transactions that want the
// paper's handleAbort() callback on programmed aborts.
type AbortHandler interface {
	HandleAbort(err error)
}

// Pending tracks a submitted transaction.
type Pending struct {
	h *engine.Handle
}

// Applied is closed when the transaction's updates are applied locally
// (the moment optimistic views can see them).
func (p *Pending) Applied() <-chan struct{} { return p.h.Applied() }

// Done delivers the final Result.
func (p *Pending) Done() <-chan Result { return p.h.Done() }

// Wait blocks for the final Result.
func (p *Pending) Wait() Result { return p.h.Wait() }

// Execute submits a transaction for atomic execution at this site.
func (s *Site) Execute(t Transaction) *Pending {
	txn := &engine.Txn{
		Execute: func(etx *engine.Tx) error {
			return t.Execute(&Tx{inner: etx})
		},
	}
	if ah, ok := t.(AbortHandler); ok {
		txn.OnAbort = ah.HandleAbort
	}
	return &Pending{h: s.eng.Submit(txn)}
}

// ExecuteFunc submits a function as a transaction.
func (s *Site) ExecuteFunc(fn func(tx *Tx) error) *Pending {
	return &Pending{h: s.eng.Submit(&engine.Txn{
		Execute: func(etx *engine.Tx) error { return fn(&Tx{inner: etx}) },
	})}
}

// errors re-exported from the engine.
var (
	// ErrAborted wraps the user error of a programmed abort.
	ErrAborted = engine.ErrAborted
	// ErrTooManyRetries reports an exhausted automatic retry budget.
	ErrTooManyRetries = engine.ErrTooManyRetries
)

// kindOf maps engine kinds to facade constructors; used when wrapping
// children of composites.
func wrapRef(s *Site, ref engine.ObjRef) Object {
	switch ref.Kind() {
	case wire.KindInt:
		return &Int{base{s, ref}}
	case wire.KindFloat:
		return &Float{base{s, ref}}
	case wire.KindString:
		return &String{base{s, ref}}
	case wire.KindBool:
		return &Bool{base{s, ref}}
	case wire.KindList:
		return &List{base{s, ref}}
	case wire.KindTuple:
		return &Tuple{base{s, ref}}
	case wire.KindAssociation:
		return &Association{base{s, ref}}
	default:
		return nil
	}
}
