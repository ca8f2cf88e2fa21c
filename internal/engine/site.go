package engine

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"decaf/internal/ids"
	"decaf/internal/obs"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wal"
	"decaf/internal/wire"
)

// Options configures a Site.
type Options struct {
	// Logger receives engine debug logs; nil disables logging.
	Logger *slog.Logger
	// MaxRetries bounds automatic re-execution after concurrency-control
	// aborts. 0 means DefaultMaxRetries.
	MaxRetries int
	// DisableFastPath turns off the commutative fast path (ablation:
	// purely commutative transactions then go through the ordinary
	// guess/confirm protocol like everything else).
	DisableFastPath bool
	// Observer receives the site's metrics, trace events, and debug
	// state. nil selects obs.Nop(): counters still count (Stats reads
	// them) but tracing and wall-clock timing are off. One Observer
	// serves one site; layers of the same site (engine, transport, gvt)
	// share it so a single scrape covers the whole process.
	Observer *obs.Observer
	// Scheduler defers engine work — the OfflineGrace failover deadline
	// and the graph-repair timers. nil selects transport.WallClock (real
	// timers). The deterministic simulation harness injects its virtual
	// clock here so that timing is part of the explored, replayable
	// schedule; the engine itself constructs no timers (enforced by the
	// decaf-vet timers analyzer).
	Scheduler Scheduler
	// WAL, when set, attaches a durable write-ahead update log
	// (DESIGN.md §13): every remote Write/FastWrite/Outcome and every
	// local commit is appended before the batch ends, Checkpoint writes
	// a covering marker, Recover replays the tail over the newest
	// checkpoint, and the anti-entropy sync protocol ships missing
	// records to reconnecting peers. All log I/O happens on the event
	// loop (the WAL's single-writer contract) and never under a lock.
	WAL *wal.Log
	// OfflineGrace bounds how long a failover stays parked for a peer
	// marked disconnected via SetPeerDisconnected: if the peer neither
	// recovers nor is unmarked within the grace period, the ordinary
	// §3.4 failover runs after all. Zero parks indefinitely (until the
	// transport reports the peer recovered).
	OfflineGrace time.Duration
}

// Scheduler schedules deferred engine work. Implemented by
// transport.WallClock (real timers, the default) and sim.Clock (virtual
// time).
type Scheduler interface {
	AfterFunc(d time.Duration, fn func()) (cancel func())
}

// DefaultMaxRetries bounds automatic transaction re-execution.
const DefaultMaxRetries = 100

// maxBatch bounds how many stimuli (calls + transport events) one event
// loop wakeup drains before flushing coalesced messages and settling
// views. Stop is noticed between batches, so the bound also keeps it
// responsive under a saturated intake.
const maxBatch = 256

// Stats are the site's monotonic event counters, readable via Site.Stats.
type Stats struct {
	// Submitted counts transactions submitted at this site.
	Submitted uint64
	// InternalTxns counts transactions the engine initiated on its own
	// behalf (graph repair after a site failure). They commit and abort
	// like user transactions but never pass through Submit; the
	// quiescent accounting identity (see invariants.go) balances
	// Submitted + InternalTxns against decisions.
	InternalTxns uint64
	// Commits counts transactions (originated here) that committed.
	Commits uint64
	// ConflictAborts counts concurrency-control aborts of transactions
	// originated here (each is followed by a retry unless the retry
	// budget is exhausted).
	ConflictAborts uint64
	// ProgrammedAborts counts transactions aborted by user code.
	ProgrammedAborts uint64
	// Retries counts automatic re-executions.
	Retries uint64
	// MessagesSent counts protocol messages sent by this site.
	MessagesSent uint64
	// UpdatesApplied counts remote updates applied at this site.
	UpdatesApplied uint64
	// OptNotifications counts optimistic view update notifications.
	OptNotifications uint64
	// OptCommits counts optimistic view commit notifications, made
	// only for views with a commit() callback.
	OptCommits uint64
	// PessNotifications counts pessimistic view update notifications.
	PessNotifications uint64
	// LostUpdates counts straggler updates subsumed by a later optimistic
	// snapshot (paper §5.1.2 "lost updates").
	LostUpdates uint64
	// UpdateInconsistencies counts optimistic notifications that exposed
	// state later rolled back (paper §5.1.2 "update inconsistencies").
	UpdateInconsistencies uint64
	// SnapshotReruns counts optimistic snapshots rerun after an abort.
	SnapshotReruns uint64
	// NotifyEnqueued counts user callbacks accepted by the notifier.
	NotifyEnqueued uint64
	// NotifyDelivered counts user callbacks that ran. After Stop,
	// NotifyEnqueued == NotifyDelivered + NotifyDropped.
	NotifyDelivered uint64
	// NotifyDropped counts user callbacks pushed after Stop closed the
	// notifier's intake. Only the event loop pushes, and it has exited
	// by then, so this stays 0: the notifier delivers what it accepts.
	NotifyDropped uint64
	// FastpathCommits counts locally originated transactions that
	// committed on the commutative fast path (no primary round-trip).
	// These are included in Commits.
	FastpathCommits uint64
	// FastpathDemotions counts RL guesses demoted to re-validation
	// because a fast-path commit landed inside their reserved interval.
	FastpathDemotions uint64
	// FailoversParked counts EventSiteFailed notifications parked
	// because the peer was marked disconnected-not-failed
	// (SetPeerDisconnected); no §3.4 failover ran for them.
	FailoversParked uint64
	// FailoversRun counts §3.4 failovers actually executed (including
	// parked ones whose OfflineGrace deadline expired).
	FailoversRun uint64
	// RepairBallots counts consensus proposal attempts (ballots) this
	// site started for graph repairs. A stable cluster decides on the
	// first ballot; higher counts indicate takeovers and duels.
	RepairBallots uint64
	// RepairQuorumFailures counts repair proposal attempts abandoned
	// without a decision: preempted by a higher ballot, or timed out
	// short of a quorum (e.g. a minority partition).
	RepairQuorumFailures uint64
	// SyncSessions counts anti-entropy sessions this site initiated.
	SyncSessions uint64
	// SyncRecordsShipped counts WAL records shipped to peers in
	// anti-entropy sessions.
	SyncRecordsShipped uint64
	// SyncRecordsApplied counts anti-entropy records fed through the
	// normal message handlers at this site.
	SyncRecordsApplied uint64
	// SyncResubmits counts in-flight optimistic transactions re-sent
	// through the §3 confirmation flow after an anti-entropy session.
	SyncResubmits uint64
}

// Site is one collaborating application instance: it hosts model objects,
// executes transactions, exchanges protocol messages with peer sites, and
// drives view notifications.
//
// All site state is owned by a single event-loop goroutine. Public methods
// are safe to call from any goroutine. A site that is never Started runs
// no goroutine of its own: whoever drives it with Step (the simulator)
// runs its batches and its notifications, and must use it from that one
// goroutine.
type Site struct {
	id    vtime.SiteID
	clock *vtime.Clock
	ep    transport.Endpoint
	opts  Options
	log   *slog.Logger

	calls chan loopCall
	// local is the loop's own FIFO of deferred work (retries, resumed
	// parked transactions, Handle continuations), drained by batch as
	// stimuli. The loop never posts to calls: a full buffer would block
	// it on itself. Loop-confined.
	local []loopCall
	stop  chan struct{}
	done  chan struct{}
	// doneOnce closes done: at loop exit, when a stepped site's endpoint
	// closes, or in Stop of a site that was never started.
	doneOnce sync.Once
	// received counts the events taken from the endpoint (see Step).
	// Loop-confined.
	received uint64
	// notifying is set while Step delivers notifications; a callback
	// that steps the site again (a synchronous call on a never-started
	// site) leaves delivery to the outer Step, so callbacks keep order.
	notifying bool

	// notifier delivers user callbacks (view update/commit, abort
	// handlers) outside the event loop, in order. Only the event loop
	// pushes into it, so after the loop exits the queue is complete and
	// Stop can drain it deterministically.
	notifier     *notifyQueue
	notifierDone chan struct{}

	// Loop-confined state.
	objects map[ids.ObjectID]*object
	nextSeq uint64
	txns    map[vtime.VT]*txnState
	// undecidedVTs lets the decided floor be found without scanning
	// txns. Every VT entered into txns is pushed on it (trackTxn);
	// decidedFloor pops the entries below the first undecided
	// transaction and retires their states. Entries are deleted lazily:
	// one whose state is gone is dropped when it reaches the top.
	undecidedVTs vtHeap
	// proxies are the attached view proxies (AttachView adds, Detach
	// removes), for snapshotFloor.
	proxies []*viewProxy
	// dirtyViews are the proxies with view work queued during the
	// current batch, in the order they were first marked; settleViews
	// empties it at batch end.
	dirtyViews []*viewProxy
	// outcomes retains summary outcomes so that late update messages are
	// treated correctly (paper §3.1).
	outcomes outcomeTable
	// rcWaiters maps an undecided transaction VT to continuations to run
	// when its outcome becomes known at this site (RC guesses).
	rcWaiters map[vtime.VT][]func(committed bool)
	// confirmWaiters routes Confirm replies for ConfirmRead requests
	// (view snapshots and join protocol steps) by request ID.
	confirmWaiters map[uint64]func(wire.Confirm)
	nextReq        uint64
	// joins tracks in-flight collaboration joins by request ID.
	joins map[uint64]*joinState
	// promotes tracks in-flight direct-propagation promotions (§3.2.2).
	promotes map[uint64]*promoteState
	// repairs tracks in-flight consensus-backed graph repairs after
	// site failures (one single-decree instance per failed site).
	repairs map[vtime.SiteID]*repairState
	// repairDecided retains decided graph repairs so duplicate or late
	// consensus traffic is answered without re-running the protocol.
	// Cleared when the failed site recovers (a later failure starts a
	// fresh instance).
	repairDecided map[vtime.SiteID]wire.RepairValue
	// commitQueries tracks outstanding outcome polls for transactions
	// orphaned by an originator failure.
	commitQueries map[vtime.VT]*queryState
	// parked holds transaction retries deferred until graph repair.
	parked []parkedRetry
	// failed records peer sites known to have failed.
	failed map[vtime.SiteID]bool
	// wal is the site's durable update log (nil: durability off).
	wal *wal.Log
	// walBuf is walAppendMsg's encoding scratch; the log copies each
	// record out of it. Loop-confined.
	walBuf []byte
	// checkpointSeq numbers checkpoint markers in the WAL; the next
	// Checkpoint writes seq checkpointSeq+1.
	checkpointSeq uint64
	// syncFloors are the anti-entropy version floors (DESIGN.md §13):
	// per origin, the highest transaction time this site provably holds
	// with no gaps below it. Advanced only by the decided floor (own
	// origin, floorList) and completed sync sessions (peer floors
	// adopted) — never by direct receipt, which can leave holes under
	// partition.
	syncFloors map[vtime.SiteID]uint64
	// peerFloors holds the highest GC floor each peer has announced on
	// a Write, FastWrite or ConfirmRead (hearFloor). A primary prunes an
	// object only below the floors of its graph's members (gcFloorFor).
	peerFloors map[vtime.SiteID]vtime.VT
	// disconnected marks peers the application declared offline-not-
	// failed (SetPeerDisconnected); their failure events park instead of
	// triggering §3.4 failover.
	disconnected map[vtime.SiteID]bool
	// parkedFailures holds the cancel hooks of parked failovers (nil
	// value: parked without an OfflineGrace deadline).
	parkedFailures map[vtime.SiteID]func()
	// authorizer is the site's authorization monitor (nil: allow all).
	authorizer Authorizer

	// outbox coalesces outbound protocol messages per peer for the
	// current loop batch; flushOutbox transmits them at batch end and
	// keeps each peer's emptied slice for the next batch. outboxOrder
	// lists the peers with messages queued, in first-send order: it is
	// empty exactly when nothing waits to leave. Loop-confined.
	outbox      map[vtime.SiteID][]wire.Message
	outboxOrder []vtime.SiteID
	// results holds the commit results decided in the current loop
	// batch; writeAhead releases them once the batch's log records are
	// written. Loop-confined.
	results []heldResult

	// gcFloor caches the combined decided/snapshot GC floor for the
	// current loop batch (the quadratic-floors fix: one O(txns+objects)
	// pass per batch instead of one per object per commit).
	// Loop-confined.
	gcFloor      vtime.VT
	gcFloorValid bool

	// obs is the site's observer (never nil; defaults to obs.Nop()).
	obs *obs.Observer
	// stats are lock-free obs counters: bumps happen on every message
	// send and apply, so they must not contend with the event loop.
	stats siteMetrics
	// started gates the debug state source so it never posts into an
	// event loop that is not running yet.
	started atomic.Bool

	startOnce sync.Once
	stopOnce  sync.Once
}

// loopCall is one posted event-loop closure. onDrop, when set, runs if
// the site shuts down without running fn — the hook that lets the retry
// and protocol paths settle their Handles instead of leaking waiters. A
// call with exec set is a submitted transaction's first execution
// instead, data rather than closures: it runs exec.txn, and its drop
// finishes exec with ErrSiteStopped.
type loopCall struct {
	fn     func()
	onDrop func()
	exec   *Handle
}

// run runs the call on the loop.
func (c loopCall) run(s *Site) {
	if c.exec != nil {
		s.execute(c.exec.txn, c.exec, 0)
		return
	}
	c.fn()
}

// drop settles a call the loop will never run.
func (c loopCall) drop() {
	switch {
	case c.exec != nil:
		c.exec.finish(Result{Err: ErrSiteStopped})
	case c.onDrop != nil:
		c.onDrop()
	}
}

// siteMetrics holds the site's registered metric handles. The counter
// fields mirror Stats; Site.Stats assembles a plain snapshot from them.
// All handles are lock-free atomics (see internal/obs), so the bump
// sites behave exactly as the former private atomic counters did.
type siteMetrics struct {
	Submitted             *obs.Counter
	InternalTxns          *obs.Counter
	Commits               *obs.Counter
	ConflictAborts        *obs.Counter
	ProgrammedAborts      *obs.Counter
	Retries               *obs.Counter
	MessagesSent          *obs.Counter
	UpdatesApplied        *obs.Counter
	OptNotifications      *obs.Counter
	OptCommits            *obs.Counter
	PessNotifications     *obs.Counter
	LostUpdates           *obs.Counter
	UpdateInconsistencies *obs.Counter
	SnapshotReruns        *obs.Counter
	FastpathCommits       *obs.Counter
	FastpathDemotions     *obs.Counter
	FailoversParked       *obs.Counter
	FailoversRun          *obs.Counter
	RepairBallots         *obs.Counter
	RepairQuorumFailures  *obs.Counter
	SyncSessions          *obs.Counter
	SyncRecordsShipped    *obs.Counter
	SyncRecordsApplied    *obs.Counter
	SyncResubmits         *obs.Counter
	WALAppendErrors       *obs.Counter

	// Event-loop counters.
	Batches         *obs.Counter // event-loop batches processed
	BatchEvents     *obs.Counter // stimuli drained across all batches
	SerialWrites    *obs.Counter // remote writes applied on the event loop
	CoalescedSends  *obs.Counter // messages sent piggybacked on a batch send
	GCFloorReuse    *obs.Counter // GC floor served from the batch cache
	NotifyEnqueued  *obs.Counter
	NotifyDelivered *obs.Counter
	NotifyDropped   *obs.Counter

	// ParkedRetries gauges transaction retries currently parked behind
	// a graph repair. Updated at the park and unpark sites (the backing
	// slice is loop-confined, so a scrape-time GaugeFunc cannot read it).
	ParkedRetries *obs.Gauge
	// OutcomesRetained and OutcomePages gauge the outcome table: its
	// recorded outcomes and its allocated pages. Set at each batch's end,
	// for the same reason.
	OutcomesRetained *obs.Gauge
	OutcomePages     *obs.Gauge

	// Latency histograms (wall seconds unless noted). Samples only
	// arrive when the observer has timing enabled.
	CommitLatency       *obs.Histogram // submit -> commit, local txns
	CommitLatencyVT     *obs.Histogram // execute -> commit, Lamport ticks
	RemoteCommitLatency *obs.Histogram // apply -> outcome, remote txns
	OptNotifyLatency    *obs.Histogram // snapshot -> optimistic delivery
	PessNotifyLatency   *obs.Histogram // snapshot -> pessimistic delivery
}

// newSiteMetrics registers (or fetches) the engine's metrics on reg.
func newSiteMetrics(reg *obs.Registry) siteMetrics {
	return siteMetrics{
		Submitted:             reg.Counter("decaf_txn_submitted_total", "transactions submitted at this site"),
		InternalTxns:          reg.Counter("decaf_txn_internal_total", "transactions initiated by the engine itself (graph repair)"),
		Commits:               reg.Counter("decaf_txn_committed_total", "locally originated transactions that committed"),
		ConflictAborts:        reg.Counter("decaf_txn_conflict_aborts_total", "concurrency-control aborts of local transactions"),
		ProgrammedAborts:      reg.Counter("decaf_txn_programmed_aborts_total", "transactions aborted by user code"),
		Retries:               reg.Counter("decaf_txn_retries_total", "automatic re-executions after conflict aborts"),
		MessagesSent:          reg.Counter("decaf_messages_sent_total", "protocol messages sent by this site"),
		UpdatesApplied:        reg.Counter("decaf_updates_applied_total", "remote updates applied at this site"),
		OptNotifications:      reg.Counter("decaf_view_opt_notifications_total", "optimistic view update notifications"),
		OptCommits:            reg.Counter("decaf_view_opt_commits_total", "optimistic view commit notifications (views with a commit callback)"),
		PessNotifications:     reg.Counter("decaf_view_pess_notifications_total", "pessimistic view update notifications"),
		LostUpdates:           reg.Counter("decaf_view_lost_updates_total", "straggler updates subsumed by a later optimistic snapshot"),
		UpdateInconsistencies: reg.Counter("decaf_view_update_inconsistencies_total", "optimistic notifications that exposed rolled-back state"),
		SnapshotReruns:        reg.Counter("decaf_view_snapshot_reruns_total", "optimistic snapshots rerun after an abort"),
		FastpathCommits:       reg.Counter("decaf_fastpath_commits_total", "transactions committed on the commutative fast path"),
		FastpathDemotions:     reg.Counter("decaf_fastpath_demotions_total", "RL guesses demoted to re-validation by a fast-path commit"),
		FailoversParked:       reg.Counter("decaf_failovers_parked_total", "failure events parked because the peer was marked disconnected"),
		FailoversRun:          reg.Counter("decaf_failovers_run_total", "§3.4 failovers executed"),
		RepairBallots:         reg.Counter("decaf_repair_ballots_total", "consensus proposal attempts started for graph repairs"),
		RepairQuorumFailures:  reg.Counter("decaf_repair_quorum_failures_total", "repair proposal attempts abandoned without a decision (preempted or quorum timeout)"),
		SyncSessions:          reg.Counter("decaf_sync_sessions_total", "anti-entropy sessions initiated by this site"),
		SyncRecordsShipped:    reg.Counter("decaf_sync_records_shipped_total", "WAL records shipped to peers in anti-entropy sessions"),
		SyncRecordsApplied:    reg.Counter("decaf_sync_records_applied_total", "anti-entropy records applied at this site"),
		SyncResubmits:         reg.Counter("decaf_sync_resubmits_total", "optimistic transactions re-submitted after an anti-entropy session"),
		WALAppendErrors:       reg.Counter("decaf_wal_append_errors_total", "WAL appends that failed (durability degraded)"),

		Batches:         reg.Counter("decaf_engine_batches_total", "event-loop batches processed"),
		BatchEvents:     reg.Counter("decaf_engine_batch_events_total", "calls and transport events drained across all batches"),
		SerialWrites:    reg.Counter("decaf_engine_serial_writes_total", "remote writes applied on the event loop"),
		CoalescedSends:  reg.Counter("decaf_engine_coalesced_sends_total", "outbound messages piggybacked on a coalesced batch send"),
		GCFloorReuse:    reg.Counter("decaf_engine_gc_floor_reuse_total", "GC floor computations served from the per-batch cache"),
		NotifyEnqueued:  reg.Counter("decaf_notify_enqueued_total", "user callbacks accepted by the notifier queue"),
		NotifyDelivered: reg.Counter("decaf_notify_delivered_total", "user callbacks delivered by the notifier goroutine"),
		NotifyDropped:   reg.Counter("decaf_notify_dropped_total", "user callbacks pushed after the notifier closed"),

		ParkedRetries:    reg.Gauge("decaf_engine_parked_retries", "transaction retries parked behind a graph repair"),
		OutcomesRetained: reg.Gauge("decaf_engine_outcomes_retained", "transaction outcomes this site retains for late messages"),
		OutcomePages:     reg.Gauge("decaf_engine_outcome_pages", "pages allocated by this site's outcome table"),

		CommitLatency:       reg.Histogram("decaf_txn_commit_latency_seconds", "submit-to-commit wall latency of locally originated transactions", obs.WallBuckets),
		CommitLatencyVT:     reg.Histogram("decaf_txn_commit_latency_vt_ticks", "execute-to-commit Lamport-clock distance of locally originated transactions", obs.VTBuckets),
		RemoteCommitLatency: reg.Histogram("decaf_txn_remote_commit_latency_seconds", "apply-to-outcome wall latency of remotely originated transactions", obs.WallBuckets),
		OptNotifyLatency:    reg.Histogram("decaf_view_opt_notify_latency_seconds", "snapshot-to-delivery wall latency of optimistic view notifications", obs.WallBuckets),
		PessNotifyLatency:   reg.Histogram("decaf_view_pess_notify_latency_seconds", "snapshot-to-delivery wall latency of pessimistic view notifications", obs.WallBuckets),
	}
}

// NewSite creates a site attached to the given transport endpoint.
// Call Start before use. Site ID 0 is reserved (it means "no site" in
// protocol fields) and is rejected.
func NewSite(ep transport.Endpoint, opts Options) *Site {
	if ep.Site() == 0 {
		panic("engine: site ID 0 is reserved; use IDs >= 1")
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	observer := opts.Observer
	if observer == nil {
		observer = obs.Nop()
	}
	if opts.Scheduler == nil {
		opts.Scheduler = transport.WallClock{}
	}
	s := &Site{
		id:             ep.Site(),
		clock:          vtime.NewClock(ep.Site()),
		ep:             ep,
		opts:           opts,
		log:            logger.With("site", ep.Site().String()),
		calls:          make(chan loopCall, 1024),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		notifierDone:   make(chan struct{}),
		objects:        map[ids.ObjectID]*object{},
		txns:           map[vtime.VT]*txnState{},
		rcWaiters:      map[vtime.VT][]func(bool){},
		confirmWaiters: map[uint64]func(wire.Confirm){},
		joins:          map[uint64]*joinState{},
		promotes:       map[uint64]*promoteState{},
		repairs:        map[vtime.SiteID]*repairState{},
		repairDecided:  map[vtime.SiteID]wire.RepairValue{},
		commitQueries:  map[vtime.VT]*queryState{},
		failed:         map[vtime.SiteID]bool{},
		wal:            opts.WAL,
		syncFloors:     map[vtime.SiteID]uint64{},
		peerFloors:     map[vtime.SiteID]vtime.VT{},
		disconnected:   map[vtime.SiteID]bool{},
		parkedFailures: map[vtime.SiteID]func(){},
		outbox:         map[vtime.SiteID][]wire.Message{},
		obs:            observer,
		stats:          newSiteMetrics(observer.Metrics()),
	}
	if s.wal != nil {
		// Continue the checkpoint-marker numbering of whatever log we
		// attached to (fresh logs report 0).
		s.checkpointSeq = s.wal.LastMarkSeq()
	}
	s.notifier = &notifyQueue{
		wake:      make(chan struct{}, 1),
		enqueued:  s.stats.NotifyEnqueued,
		delivered: s.stats.NotifyDelivered,
		dropped:   s.stats.NotifyDropped,
	}
	s.registerObs()
	return s
}

// registerObs installs the engine's scrape-time gauges and debug state
// source on the site's observer.
func (s *Site) registerObs() {
	reg := s.obs.Metrics()
	// Queue depths are safe to read from any goroutine.
	reg.GaugeFunc("decaf_engine_calls_queue_depth", "pending event-loop calls", func() float64 { return float64(len(s.calls)) })
	reg.GaugeFunc("decaf_engine_notifier_queue_depth", "pending view/user callbacks", func() float64 { return float64(s.notifier.depth()) })
	if s.wal != nil {
		// wal.Stats reads atomics, so scrapes never touch the event loop.
		reg.GaugeFunc("decaf_wal_records", "records in the write-ahead log", func() float64 { return float64(s.wal.Stats().Records) })
		reg.GaugeFunc("decaf_wal_bytes", "bytes in the write-ahead log", func() float64 { return float64(s.wal.Stats().Bytes) })
		reg.GaugeFunc("decaf_wal_segments", "segment files in the write-ahead log", func() float64 { return float64(s.wal.Stats().Segments) })
		reg.GaugeFunc("decaf_wal_syncs", "fsyncs issued by the write-ahead log", func() float64 { return float64(s.wal.Stats().Syncs) })
		reg.GaugeFunc("decaf_wal_writes", "writes that handed buffered records to the write-ahead log's files", func() float64 { return float64(s.wal.Stats().Writes) })
	}
	s.obs.RegisterStateSource("engine", s.debugState)
}

// debugState snapshots loop-confined engine state for the debug server.
// It posts into the event loop, so it reflects a consistent instant.
func (s *Site) debugState() any {
	if !s.started.Load() {
		return map[string]any{"running": false}
	}
	var out map[string]any
	if err := s.call(func() { out = s.collectDebugState() }); err != nil {
		return map[string]any{"running": false}
	}
	out["running"] = true
	return out
}

// collectDebugState assembles the engine's debug map inside the loop.
func (s *Site) collectDebugState() map[string]any {
	byStatus := map[string]int{}
	for _, st := range s.txns {
		switch st.status {
		case txnExecuting:
			byStatus["executing"]++
		case txnWaiting:
			byStatus["waiting"]++
		case txnApplied:
			byStatus["applied"]++
		case txnCommitted:
			byStatus["committed"]++
		case txnAborted:
			byStatus["aborted"]++
		}
	}
	reservations := map[string]int{}
	views := map[string]int{}
	for _, id := range sortedObjectIDs(s.objects) {
		o := s.objects[id]
		if n := o.res.Len() + o.graphRes.Len(); n > 0 {
			reservations[id.String()] = n
		}
		for _, p := range o.proxies {
			if p.mode == Optimistic {
				views["optimistic"]++
			} else {
				views["pessimistic"]++
			}
		}
	}
	var failedSites []string
	for _, site := range sortedSites(s.failed) {
		failedSites = append(failedSites, site.String())
	}
	peerFloors := map[string]string{}
	for _, site := range sortedSites(s.peerFloors) {
		peerFloors[site.String()] = s.peerFloors[site].String()
	}
	// Each open commit query and the survivors it still waits on.
	orphanQueries := map[string][]string{}
	for _, vt := range sortedVTs(s.commitQueries) {
		waiting := []string{}
		for _, site := range sortedSites(s.commitQueries[vt].waiting) {
			waiting = append(waiting, site.String())
		}
		orphanQueries[vt.String()] = waiting
	}
	return map[string]any{
		"site":                 s.id.String(),
		"clock":                s.clock.Now().String(),
		"objects":              len(s.objects),
		"txns_by_status":       byStatus,
		"reservations":         reservations,
		"outcomes_retained":    s.outcomes.len(),
		"peer_gc_floors":       peerFloors,
		"rc_waiters":           len(s.rcWaiters),
		"confirm_waiters":      len(s.confirmWaiters),
		"parked_retries":       len(s.parked),
		"repairs_in_flight":    len(s.repairs),
		"orphan_queries":       orphanQueries,
		"failed_sites":         failedSites,
		"attached_views":       views,
		"calls_queue_depth":    len(s.calls),
		"notifier_queue_depth": s.notifier.depth(),
	}
}

// trace records one VT-stamped protocol event when tracing is enabled.
// Call sites that build costly Detail strings guard with
// s.obs.TraceEnabled() first.
func (s *Site) trace(kind obs.EventKind, txn vtime.VT, peer vtime.SiteID, detail string) {
	if !s.obs.TraceEnabled() {
		return
	}
	s.obs.Trace().Record(obs.Event{
		Wall:   s.obs.NowNanos(),
		TxnVT:  txn,
		Site:   s.id,
		Kind:   kind,
		Peer:   peer,
		Detail: detail,
	})
}

// Observer returns the site's observer.
func (s *Site) Observer() *obs.Observer { return s.obs }

// ID returns the site identifier.
func (s *Site) ID() vtime.SiteID { return s.id }

// Start launches the event loop and the notifier goroutine. A site that
// is never started is driven with Step instead.
func (s *Site) Start() {
	s.startOnce.Do(func() {
		s.started.Store(true)
		go s.loop()
		go s.notifyLoop()
	})
}

// Stop shuts the site down deterministically: it stops the event loop,
// settles every call still queued behind it (their onDrop hooks finish
// outstanding Handles with ErrSiteStopped), closes notification intake
// — by then complete, because only the event loop produces
// notifications — and waits for the notifier to drain in full. After
// Stop, NotifyEnqueued == NotifyDelivered + NotifyDropped: nothing that
// was accepted is lost to the shutdown race. In-flight transactions are
// abandoned. On a site that was never started, Stop does the loop's and
// the notifier's part itself, and a later Start does nothing.
func (s *Site) Stop() {
	stepped := false
	s.startOnce.Do(func() { stepped = true })
	s.stopOnce.Do(func() { close(s.stop) })
	if stepped {
		s.markDone()
	}
	<-s.done
	s.drainCalls()
	for len(s.local) > 0 {
		// Drop hooks may finish Handles whose continuations queue more.
		c := s.local[0]
		s.local = s.local[1:]
		c.drop()
	}
	s.notifier.closeIntake()
	if stepped {
		s.notifyLoop()
	}
	<-s.notifierDone
}

// markDone records that the loop has exited for good.
func (s *Site) markDone() {
	s.doneOnce.Do(func() { close(s.done) })
}

// drainCalls settles calls that were accepted but never reached the
// (now exited) event loop.
func (s *Site) drainCalls() {
	for {
		select {
		case c := <-s.calls:
			c.drop()
		default:
			return
		}
	}
}

// Quiescent reports whether the site has no runnable work: the event
// loop is parked over empty intake queues and the notifier is idle.
// Protocol messages still queued in the transport do not count. Its
// callers are benchmark/cluster.go and engine tests, which wait for a
// started cluster to settle; the simulator steps its sites instead
// (Step). The check round-trips through the event loop, so the verdict
// is exact: a stimulus is either visibly queued or has fully run, never
// invisibly in between. A stopped or crashed site is quiescent once its
// notifier has drained.
func (s *Site) Quiescent() bool {
	quiet := false
	if err := s.call(func() {
		// The outbox/dirty-view checks matter when this probe is drained
		// into the middle of an active batch: sends and view work queued
		// by earlier stimuli of that batch only happen at batch end, so
		// the site is not quiescent until they have.
		quiet = len(s.calls) == 0 && len(s.local) == 0 && len(s.ep.Events()) == 0 &&
			len(s.outboxOrder) == 0 && len(s.dirtyViews) == 0
	}); err != nil {
		return s.notifier.idle()
	}
	return quiet && s.notifier.idle()
}

// PendingUndecided reports how many remotely originated transactions
// are applied but still undecided at this site. After global quiescence
// with no messages left in flight it must be zero — a nonzero count
// means an outcome was lost. Returns 0 for a stopped site.
func (s *Site) PendingUndecided() int {
	n := 0
	_ = s.call(func() {
		for _, st := range s.txns {
			if st.status == txnApplied {
				n++
			}
		}
	})
	return n
}

// WaitingLocal reports how many locally originated transactions are
// executed but still waiting for confirmations or RC dependencies at
// this site. Tests and benchmarks that cut a site off from its peers
// use it to observe that an optimistic transaction has actually sent
// its (doomed) confirmation request and parked, rather than still
// sitting in the submit queue. Returns 0 for a stopped site.
func (s *Site) WaitingLocal() int {
	n := 0
	_ = s.call(func() {
		for _, st := range s.txns {
			if st.status == txnWaiting && st.origin == s.id {
				n++
			}
		}
	})
	return n
}

// Stats returns a snapshot of the site's counters. It is a thin read
// over the obs registry: the same counters serve Stats and /metrics.
func (s *Site) Stats() Stats {
	return Stats{
		Submitted:             s.stats.Submitted.Value(),
		InternalTxns:          s.stats.InternalTxns.Value(),
		Commits:               s.stats.Commits.Value(),
		ConflictAborts:        s.stats.ConflictAborts.Value(),
		ProgrammedAborts:      s.stats.ProgrammedAborts.Value(),
		Retries:               s.stats.Retries.Value(),
		MessagesSent:          s.stats.MessagesSent.Value(),
		UpdatesApplied:        s.stats.UpdatesApplied.Value(),
		OptNotifications:      s.stats.OptNotifications.Value(),
		OptCommits:            s.stats.OptCommits.Value(),
		PessNotifications:     s.stats.PessNotifications.Value(),
		LostUpdates:           s.stats.LostUpdates.Value(),
		UpdateInconsistencies: s.stats.UpdateInconsistencies.Value(),
		SnapshotReruns:        s.stats.SnapshotReruns.Value(),
		NotifyEnqueued:        s.stats.NotifyEnqueued.Value(),
		NotifyDelivered:       s.stats.NotifyDelivered.Value(),
		NotifyDropped:         s.stats.NotifyDropped.Value(),
		FastpathCommits:       s.stats.FastpathCommits.Value(),
		FastpathDemotions:     s.stats.FastpathDemotions.Value(),
		FailoversParked:       s.stats.FailoversParked.Value(),
		FailoversRun:          s.stats.FailoversRun.Value(),
		RepairBallots:         s.stats.RepairBallots.Value(),
		RepairQuorumFailures:  s.stats.RepairQuorumFailures.Value(),
		SyncSessions:          s.stats.SyncSessions.Value(),
		SyncRecordsShipped:    s.stats.SyncRecordsShipped.Value(),
		SyncRecordsApplied:    s.stats.SyncRecordsApplied.Value(),
		SyncResubmits:         s.stats.SyncResubmits.Value(),
	}
}

// loop is the site's event loop: it owns all site state and does all of
// the site's protocol work on one goroutine. It blocks for a stimulus
// unless its own FIFO holds work, and hands it to batch.
func (s *Site) loop() {
	defer s.markDone()
	events := s.ep.Events()
	for {
		var first stimulus
		if len(s.local) > 0 {
			select {
			case <-s.stop:
				return
			default:
			}
		} else {
			select {
			case <-s.stop:
				return
			case c := <-s.calls:
				first.call = c
			case ev, ok := <-events:
				if !ok {
					// Transport killed this site (fail-stop crash in a
					// simulation, or endpoint closed).
					return
				}
				first.ev, first.isEvent = ev, true
			}
		}
		s.batch(first)
	}
}

// Step runs one batch on the caller's goroutine, then delivers the
// notifications it queued. It is how a site that was never started is
// driven: internal/sim steps every site of a run on its one goroutine.
// It reports whether it found work; false means the site stays idle
// until something posts to it or its endpoint delivers. Once the
// endpoint has closed (a killed site), Step does nothing.
func (s *Site) Step() bool {
	select {
	case <-s.done:
		return false
	default:
	}
	n, open := s.batch(stimulus{})
	if a, ok := s.ep.(interface{ Accepted() uint64 }); ok && n == 0 && open && a.Accepted() > s.received {
		// The inbox pump holds events the channel does not show yet. The
		// site is not idle: wait for the next one.
		if ev, ok := <-s.ep.Events(); ok {
			n, open = s.batch(stimulus{ev: ev, isEvent: true})
		} else {
			open = false
		}
	}
	if !open {
		s.markDone()
	}
	if s.notifying {
		return n > 0
	}
	s.notifying = true
	ran, _ := s.notifier.runAll()
	s.notifying = false
	return n > 0 || ran
}

// stimulus is the one a batch starts with when the loop woke up for it:
// a posted call, or a transport event. The zero stimulus is none.
type stimulus struct {
	call    loopCall
	ev      transport.Event
	isEvent bool
}

// run handles the stimulus and reports whether there was one.
func (st stimulus) run(s *Site) bool {
	switch {
	case st.isEvent:
		s.handleEvent(st.ev)
	case st.call.fn != nil || st.call.exec != nil:
		st.call.run(s)
	default:
		return false
	}
	return true
}

// batch runs one batch of stimuli: first (when there is one), then work
// already queued — the loop's own FIFO, posted calls and transport
// events, one of each per round — up to maxBatch stimuli, then the
// epilogue (endBatch), which flushes coalesced outbound messages and
// settles the views. It returns the number of stimuli handled (0: no
// batch ran) and whether the endpoint's event channel is still open.
// Stop is not polled here; the loop notices it at the next batch
// boundary. Single-channel non-blocking receives, unlike a multi-way
// select, take no channel lock when the channel is empty.
func (s *Site) batch(first stimulus) (n int, open bool) {
	s.beginBatch()
	if first.run(s) {
		n++
	}
	events := s.ep.Events()
	open = true
	for n < maxBatch {
		before := n
		if len(s.local) > 0 {
			c := s.local[0]
			s.local = s.local[1:]
			c.run(s)
			n++
		}
		select {
		case c := <-s.calls:
			c.run(s)
			n++
		default:
		}
		select {
		case ev, ok := <-events:
			if !ok {
				open = false
				break
			}
			s.handleEvent(ev)
			n++
		default:
		}
		if n == before || !open {
			break
		}
	}
	if n > 0 {
		s.endBatch(n)
	}
	return n, open
}

// beginBatch resets per-batch state (the GC floor cache; see
// combinedGCFloor).
func (s *Site) beginBatch() {
	s.gcFloorValid = false
}

// endBatch runs the batch epilogue: the write-ahead step, then the
// coalesced outbox, which carries the batch's decisions (Confirms,
// Outcomes); the view work the batch queued; the CONFIRM-READs that view
// work sent, again behind a write-ahead step. Decisions leave before the
// views are settled because view notification is local to the viewing
// site (paper §4) and nothing a peer waits for depends on it (DESIGN.md
// §10).
func (s *Site) endBatch(n int) {
	s.writeAhead()
	s.flushOutbox()
	if len(s.dirtyViews) > 0 {
		s.settleViews()
		s.writeAhead()
		s.flushOutbox()
	}
	s.stats.OutcomesRetained.Set(int64(s.outcomes.len()))
	s.stats.OutcomePages.Set(int64(s.outcomes.pageCount()))
	s.stats.Batches.Inc()
	s.stats.BatchEvents.Add(uint64(n))
}

// heldResult is a commit result waiting for its batch's log write.
type heldResult struct {
	h *Handle
	r Result
}

// writeAhead is group commit (DESIGN.md §13): the log records the batch
// appended so far go to the WAL in one write, fsynced under SyncBatch,
// and only then are the batch's commit results released to their
// submitters. The caller flushes the outbox after it, so no message and
// no commit result leaves before the records it depends on.
func (s *Site) writeAhead() {
	if s.wal != nil {
		if err := s.wal.Sync(); err != nil {
			s.stats.WALAppendErrors.Inc()
			s.log.Warn("wal sync failed", "err", err)
		}
	}
	for i, held := range s.results {
		s.obs.ObserveSince(s.stats.CommitLatency, held.h.submittedWall)
		held.h.finish(held.r)
		s.results[i] = heldResult{}
	}
	s.results = s.results[:0]
}

// notifyQueue delivers user callbacks in order on the notifier
// goroutine. It grows on demand so the event loop never blocks on a
// slow consumer — a full fixed-size buffer used to deadlock the site
// whenever a callback re-entered the API while the loop was wedged in
// notify() — and it drops nothing it accepts (paper §4.2: pessimistic
// notification is lossless).
type notifyQueue struct {
	mu    sync.Mutex
	queue []func() // guarded by mu
	// spare is the emptied slice of the last delivery, which becomes the
	// next queue: the two swap, so steady delivery allocates nothing.
	spare   []func() // guarded by mu
	closed  bool     // guarded by mu
	running bool     // guarded by mu; the notifier goroutine is mid-delivery
	// wake (capacity 1) signals the notifier goroutine; senders never
	// block.
	wake chan struct{}

	enqueued  *obs.Counter
	delivered *obs.Counter
	dropped   *obs.Counter
}

// push appends fn unless the queue is closed; a post-close push is
// dropped and counted.
func (q *notifyQueue) push(fn func()) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.dropped.Inc()
		return
	}
	q.queue = append(q.queue, fn)
	q.mu.Unlock()
	q.enqueued.Inc()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// runAll runs queued callbacks, in order, until it finds the queue
// empty. It reports whether it ran any, and whether intake was closed
// when it found the queue empty: then the queue is drained for good.
func (q *notifyQueue) runAll() (ran, closed bool) {
	for {
		q.mu.Lock()
		fns := q.queue
		closed = q.closed
		if len(fns) == 0 {
			q.mu.Unlock()
			return ran, closed
		}
		q.queue, q.spare = q.spare, nil
		q.running = true
		q.mu.Unlock()
		for _, fn := range fns {
			fn()
			q.delivered.Inc()
		}
		ran = true
		clear(fns)
		q.mu.Lock()
		q.running = false
		q.spare = fns[:0]
		q.mu.Unlock()
	}
}

// idle reports whether nothing is queued and no delivery is in flight.
func (q *notifyQueue) idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue) == 0 && !q.running
}

// closeIntake stops accepting callbacks and wakes the notifier so it
// can finish draining.
func (q *notifyQueue) closeIntake() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// depth returns the number of queued callbacks.
func (q *notifyQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

// notifyLoop runs user callbacks in order, outside the event loop. It
// exits only once intake is closed and the queue is empty, so every
// accepted notification is delivered.
func (s *Site) notifyLoop() {
	defer close(s.notifierDone)
	for {
		if _, closed := s.notifier.runAll(); closed {
			return
		}
		<-s.notifier.wake
	}
}

// notify queues a user callback. Only the event loop calls it, and
// Stop closes the notifier's intake only after the loop has exited, so
// every callback is accepted.
func (s *Site) notify(fn func()) {
	s.notifier.push(fn)
}

// do posts fn into the event loop without waiting. It reports whether
// the call was accepted; false means the site is stopped and fn will
// never run. An accepted call either runs on the loop or — if the site
// stops first — has its onDrop hook run by Stop, so callers that hold a
// Handle pass onDrop to settle it (see doOrDrop).
func (s *Site) do(fn func()) bool {
	return s.post(loopCall{fn: fn})
}

// doOrDrop posts fn with a shutdown hook: exactly one of fn (on the
// loop) or onDrop (during Stop) runs for an accepted call. When the
// post itself is rejected, doOrDrop runs onDrop inline and returns
// false.
func (s *Site) doOrDrop(fn, onDrop func()) bool {
	if s.post(loopCall{fn: fn, onDrop: onDrop}) {
		return true
	}
	onDrop()
	return false
}

func (s *Site) post(c loopCall) bool {
	select {
	case <-s.stop:
		return false
	case <-s.done:
		return false
	default:
	}
	select {
	case s.calls <- c:
	case <-s.stop:
		return false
	case <-s.done:
		return false
	}
	select {
	case <-s.done:
		// With stop and done both closed the send above could still win
		// the select, after Stop had drained the queue. Nothing would
		// ever run c or its onDrop then, so drain here too: each queued
		// call is received, and settled, exactly once.
		s.drainCalls()
	default:
	}
	return true
}

// enqueue appends work the loop originates to its own FIFO, which the
// current or next batch drains as a stimulus. Exactly one of fn (on the
// loop) or onDrop (during Stop; nil for none) runs. Loop-side only; off
// the loop, Stop calls it while it settles the FIFO.
func (s *Site) enqueue(fn, onDrop func()) {
	s.local = append(s.local, loopCall{fn: fn, onDrop: onDrop})
}

// onFinish makes fn a continuation of h: once h finishes, fn runs on the
// loop as a stimulus of its own, or onDrop (nil for none) runs if the
// site stops first. h must be an engine-internal Handle, finished only
// on the loop or by Stop's drop hooks.
func (s *Site) onFinish(h *Handle, fn func(Result), onDrop func()) {
	h.cont = func(r Result) { s.enqueue(func() { fn(r) }, onDrop) }
}

// call posts fn into the event loop and waits for it to run. It returns
// an error when the site is stopped. A never-started site runs on its
// caller's goroutine, so call steps it until fn has run.
func (s *Site) call(fn func()) error {
	ch := make(chan struct{})
	ran := false
	wrapped := func() {
		fn()
		ran = true
		close(ch)
	}
	if !s.post(loopCall{fn: wrapped, onDrop: func() { close(ch) }}) {
		return ErrSiteStopped
	}
	if !s.started.Load() {
		for !ran && s.Step() {
		}
	}
	select {
	case <-ch:
		return nil
	case <-s.done:
		return ErrSiteStopped
	}
}

// ErrSiteStopped is returned by API calls on a stopped site.
var ErrSiteStopped = errors.New("engine: site stopped")

// send stamps and transmits a protocol message. Non-loopback sends are
// coalesced into the batch outbox and leave in flushOutbox; the Lamport
// stamp is taken at flush time, which still follows every event the
// message reflects.
func (s *Site) send(to vtime.SiteID, msg wire.Message) {
	if to == s.id {
		// Loop back locally without the transport; used by protocol
		// steps that uniformly address every involved site.
		s.handleMessage(s.id, msg)
		return
	}
	if s.failed[to] {
		return
	}
	q := s.outbox[to]
	if len(q) == 0 {
		s.outboxOrder = append(s.outboxOrder, to)
	}
	s.outbox[to] = append(q, msg)
}

// flushOutbox transmits the batch's coalesced messages, one transport
// handoff per peer. Each peer's slice is emptied and kept for the next
// batch; a transport copies what it keeps of a batch (BatchSender).
func (s *Site) flushOutbox() {
	if len(s.outboxOrder) == 0 {
		return
	}
	now := s.clock.Now()
	for _, to := range s.outboxOrder {
		msgs := s.outbox[to]
		s.outbox[to] = msgs[:0]
		if !s.failed[to] {
			s.sendBatch(to, now, msgs)
		}
		clear(msgs) // the sent messages are the transport's now
	}
	s.outboxOrder = s.outboxOrder[:0]
}

// sendBatch hands one peer's share of the outbox to the transport.
func (s *Site) sendBatch(to vtime.SiteID, now vtime.VT, msgs []wire.Message) {
	if err := s.ep.SendBatch(to, now, msgs); err != nil {
		s.log.Debug("send failed", "to", to.String(), "batch", len(msgs), "err", err)
		return
	}
	s.stats.MessagesSent.Add(uint64(len(msgs)))
	if len(msgs) > 1 {
		s.stats.CoalescedSends.Add(uint64(len(msgs) - 1))
	}
}

// handleEvent dispatches one transport event inside the loop.
func (s *Site) handleEvent(ev transport.Event) {
	s.received++
	switch ev.Kind {
	case transport.EventMessage:
		s.clock.Observe(ev.SentAt)
		s.handleMessage(ev.From, ev.Msg)
	case transport.EventSiteFailed:
		if s.disconnected[ev.Failed] {
			// Offline mode (DESIGN.md §13): the peer is known to be
			// disconnected, not failed. Park the failover instead of
			// running §3.4 repair against a site that will come back
			// with its optimistic tail intact.
			s.parkFailure(ev.Failed)
			return
		}
		s.stats.FailoversRun.Inc()
		s.handleSiteFailure(ev.Failed)
	case transport.EventSiteRecovered:
		s.unparkFailure(ev.Failed)
		delete(s.disconnected, ev.Failed)
		s.handleSiteRecovered(ev.Failed)
		if s.wal != nil {
			// Pull anything the reconnecting peer committed while we
			// were apart; its own reconnect logic pulls our side.
			s.startSync(ev.Failed)
		}
	}
}

// handleMessage dispatches a protocol message inside the loop.
func (s *Site) handleMessage(from vtime.SiteID, msg wire.Message) {
	switch m := msg.(type) {
	case wire.Write:
		s.hearFloor(from, m.Floor)
		s.walLogWrite(m)
		s.stats.SerialWrites.Inc()
		s.handleWrite(m, false)
	case wire.FastWrite:
		s.hearFloor(from, m.Floor)
		if _, decided := s.outcomes.get(m.TxnVT); decided {
			// A fast-path transaction ships exactly one FastWrite per
			// destination, so a recorded outcome means this copy is a
			// transport-level duplicate (or the repair protocol already
			// decided the transaction). Its ops are NOT idempotent —
			// re-applying an Add doubles the increment — so the copy
			// must be dropped, not merged. Found by the simulation
			// sweep: profile fastpath-faulty, seed 5 diverged replicas
			// before this guard existed.
			return
		}
		// Log after the duplicate guard so a replayed log never carries
		// the same FastWrite twice (its ops are not idempotent).
		s.walLogFastWrite(m)
		s.stats.SerialWrites.Inc()
		s.handleFastWrite(m)
	case wire.ConfirmRead:
		s.hearFloor(from, m.Floor)
		s.handleConfirmRead(from, m)
	case wire.Confirm:
		s.handleConfirm(m)
	case wire.Outcome:
		s.walLogOutcome(m)
		s.learn(m.TxnVT, m.Committed)
	case wire.SyncRequest:
		s.handleSyncRequest(from, m)
	case wire.SyncUpdates:
		s.handleSyncUpdates(from, m)
	case wire.JoinRequest:
		s.handleJoinRequest(from, m)
	case wire.PromoteQuery:
		s.handlePromoteQuery(m)
	case wire.PromoteReply:
		s.handlePromoteReply(m)
	case wire.JoinReply:
		s.handleJoinReply(m)
	case wire.CommitQuery:
		s.handleCommitQuery(from, m)
	case wire.CommitQueryReply:
		s.handleCommitQueryReply(m)
	case wire.RepairPrepare:
		s.handleRepairPrepare(m)
	case wire.RepairPromise:
		s.handleRepairPromise(m)
	case wire.RepairAccept:
		s.handleRepairAccept(m)
	case wire.RepairAccepted:
		s.handleRepairAccepted(m)
	case wire.RepairLearn:
		s.handleRepairLearn(m)
	default:
		s.log.Warn("unknown message", "from", from.String(), "type", fmt.Sprintf("%T", msg))
	}
}

// newReqID allocates a request ID for ConfirmRead/Join round trips.
func (s *Site) newReqID() uint64 {
	s.nextReq++
	return s.nextReq
}

// trackTxn enters st into txns under its VT.
func (s *Site) trackTxn(st *txnState) {
	s.txns[st.vt] = st
	s.undecidedVTs.push(st.vt)
}

// decidedFloor returns the largest VT below which every transaction known
// at this site is decided. It bounds what this site can still ask a
// primary to check, not what its peers can: a lagging peer may still send
// a Write below it, so a primary prunes lower (gcFloorFor).
//
// It is the one place that reads whether a transaction is decided: a
// decided state popped on the way to the floor is retired from txns.
// Until then it serves late or duplicate messages, which the outcome
// table answers as well; without the retirement s.txns grows with every
// transaction ever seen.
func (s *Site) decidedFloor() vtime.VT {
	floor := s.clock.Now()
	for len(s.undecidedVTs) > 0 {
		vt := s.undecidedVTs[0]
		st, ok := s.txns[vt]
		if ok && !st.decided() {
			if vt.LessEq(floor) {
				floor = vtime.JustBelow(vt)
			}
			break
		}
		s.undecidedVTs.pop()
		if ok {
			delete(s.txns, vt)
		}
	}
	return floor
}

// snapshotFloor returns the minimum VT any outstanding view snapshot may
// still read, across all proxies at this site.
func (s *Site) snapshotFloor() vtime.VT {
	floor := s.clock.Now()
	for _, p := range s.proxies {
		if f, ok := p.minSnapshotVT(); ok && f.Less(floor) {
			floor = f
		}
	}
	return floor
}

// combinedGCFloor returns the batch-cached GC floor, computing it on
// first use within the batch. Committing a transaction only raises the
// true floor, so a stale-low cache merely defers pruning to the next
// batch; events that can lower the floor (new view snapshots) call
// invalidateGCFloor.
func (s *Site) combinedGCFloor() vtime.VT {
	if s.gcFloorValid {
		s.stats.GCFloorReuse.Inc()
		return s.gcFloor
	}
	floor := s.decidedFloor()
	if sf := s.snapshotFloor(); sf.Less(floor) {
		floor = sf
	}
	s.gcFloor = floor
	s.gcFloorValid = true
	return floor
}

// invalidateGCFloor drops the batch floor cache. Called where the floor
// can move down: snapshot creation.
func (s *Site) invalidateGCFloor() {
	s.gcFloorValid = false
}

// hearFloor records the GC floor a peer announced on a Write, FastWrite
// or ConfirmRead. Floors only rise: a peer's earlier, lower floor still
// bounds every request it sends later.
func (s *Site) hearFloor(from vtime.SiteID, floor vtime.VT) {
	if s.peerFloors[from].Less(floor) {
		s.peerFloors[from] = floor
	}
}

// gcFloorFor returns the VT below which o's histories and reservations
// may be pruned. A replica prunes at this site's own floor. The primary
// validates every Write and ConfirmRead for o, so it prunes only below
// what each live member of o's graph has announced as well: a member not
// heard from yet, or parked offline, holds the floor where it is; a
// failed member no longer sends and drops out.
func (s *Site) gcFloorFor(o *object) vtime.VT {
	floor := s.combinedGCFloor()
	g, _ := o.currentGraph()
	if g == nil {
		return floor
	}
	if p, ok := g.PrimarySite(); !ok || p != s.id {
		return floor
	}
	g.EachSite(func(site vtime.SiteID) {
		if site == s.id || s.failed[site] {
			return
		}
		if f := s.peerFloors[site]; f.Less(floor) {
			floor = f
		}
	})
	return floor
}

// maybeGC prunes the given object's histories and reservations.
func (s *Site) maybeGC(o *object) {
	floor := s.gcFloorFor(o)
	o.hist.GC(floor)
	o.graphHist.GC(floor)
	o.res.GCBelow(floor)
	o.graphRes.GCBelow(floor)
}
