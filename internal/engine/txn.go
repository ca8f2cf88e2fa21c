package engine

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"decaf/internal/history"
	"decaf/internal/obs"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// txnStatus is the lifecycle state of a transaction at a site.
type txnStatus int

const (
	// txnExecuting: user code is running at the originating site.
	txnExecuting txnStatus = iota + 1
	// txnWaiting: the originating site awaits confirmations / RC deps.
	txnWaiting
	// txnApplied: a remote site applied the updates; outcome unknown.
	txnApplied
	txnCommitted
	txnAborted
)

// Txn is a user transaction as seen by the engine: Execute runs atomically
// against model objects through the Tx context; OnAbort is invoked for
// programmed aborts (Execute returned an error or panicked), mirroring the
// paper's handleAbort() (§2.4).
type Txn struct {
	Name    string
	Execute func(tx *Tx) error
	OnAbort func(err error)
}

// Result is the final outcome of a submitted transaction.
type Result struct {
	Committed bool
	// Err is non-nil for programmed aborts (wrapping the user error) and
	// for transactions that exhausted their retry budget.
	Err error
	// Retries counts automatic re-executions due to conflicts.
	Retries int
	// VT is the virtual time of the (final) execution.
	VT vtime.VT
}

// Handle tracks a submitted transaction.
type Handle struct {
	applied chan struct{}
	done    chan Result
	// submittedWall is the Observer.NowNanos stamp taken at Submit (0
	// with timing disabled); commit latency is measured from it so the
	// histogram spans retries.
	submittedWall int64
	// cont, when set (Site.onFinish), runs once with the first Result.
	cont func(Result)
}

func newHandle() *Handle {
	return &Handle{
		applied: make(chan struct{}),
		done:    make(chan Result, 1),
	}
}

// Applied is closed when the transaction's updates have been applied
// locally at the originating site (the moment optimistic views see them).
func (h *Handle) Applied() <-chan struct{} { return h.applied }

// Done delivers the final Result exactly once.
func (h *Handle) Done() <-chan Result { return h.done }

// Wait blocks until the final Result.
func (h *Handle) Wait() Result { return <-h.done }

func (h *Handle) markApplied() {
	select {
	case <-h.applied:
	default:
		close(h.applied)
	}
}

func (h *Handle) finish(r Result) {
	h.markApplied()
	select {
	case h.done <- r:
		if h.cont != nil {
			h.cont(r)
		}
	default:
	}
}

// Errors reported through Result.Err.
var (
	// ErrAborted wraps the user error of a programmed abort.
	ErrAborted = errors.New("engine: transaction aborted")
	// ErrTooManyRetries reports an exhausted automatic retry budget.
	ErrTooManyRetries = errors.New("engine: transaction exceeded retry budget")
)

// readRec records one model-object read: the read time tR and graph time
// tG of paper §3.1.
type readRec struct {
	obj      *object
	readVT   vtime.VT // tR: VT at which the read value was written
	graphVT  vtime.VT // tG: VT at which the object's graph last changed
	absorbed bool     // the object was subsequently written; check rides the update
}

// writeRec records one model-object modification.
type writeRec struct {
	obj     *object
	readVT  vtime.VT // tR (equal to the txn VT for blind writes)
	graphVT vtime.VT
	ops     []wire.Op
	// targetGraph, when non-nil, overrides the propagation targets (a
	// graph update must reach the members of the graph as it was BEFORE
	// the update — e.g. a leave still informs the site being left).
	targetGraph *repgraph.Graph
	// pathOverride, when non-nil, fixes the addressing path captured at
	// write time (a promotion changes the object's replication root
	// mid-transaction, which would otherwise change the computed path).
	pathOverride *wire.Path
}

// appliedUpdate is one locally applied modification with its undo and
// (optional) commit action. A nil commit defaults to committing the
// object's value-history version at the transaction's VT.
type appliedUpdate struct {
	obj    *object
	undo   func()
	commit func()
}

// commitApplied finalizes every applied modification.
func (st *txnState) commitApplied() {
	for _, a := range st.applied {
		if a.commit != nil {
			a.commit()
			continue
		}
		a.obj.hist.Commit(st.vt)
	}
}

// txnState is the per-site implementation object of one transaction
// (paper §3: "transaction implementation objects are created at those
// sites").
type txnState struct {
	vt     vtime.VT
	origin vtime.SiteID
	status txnStatus

	// Originating-site state.
	txn          *Txn
	handle       *Handle
	reads        []*readRec
	writes       []*writeRec
	rcDeps       map[vtime.VT]bool
	waitConfirms map[vtime.SiteID]bool
	involved     map[vtime.SiteID]bool
	delegatedTo  vtime.SiteID
	retries      int
	denied       bool
	deniedCause  *cause
	// extraPending counts additional completion predicates used by the
	// join protocol (paper §3.3) before the transaction may commit.
	extraPending int
	// earlyConfirms records the sites whose confirmation arrived before
	// the join reply told us to expect it. (A denial decides at once.)
	earlyConfirms map[vtime.SiteID]bool
	// retryFn, when set, re-executes protocol-level transactions (joins)
	// after a concurrency-control abort, instead of the standard
	// Txn.Execute path.
	retryFn func(retries int)
	// parkOnAbort defers the retry until a graph repair commits (the
	// transaction depends on a failed primary site).
	parkOnAbort bool
	// hasGraphOp marks transactions carrying replication-graph updates;
	// their commit unparks deferred retries.
	hasGraphOp bool
	// graphObjs are the local objects whose graphs this transaction
	// changed (drives direct-child refresh after commit, §3.2.2).
	graphObjs []*object
	// fast marks a commutative fast-path transaction (commute.go),
	// committed where it executed and on arrival everywhere else.
	fast bool
	// informs, at a delegate, lists the sites the origin asked it to
	// tell the decision (paper §3.1 delegated commit).
	informs []vtime.SiteID

	// State kept at every site that applied updates.
	applied []appliedUpdate
	// blockedRemaining counts this transaction's indirect updates still
	// blocked on unseen structural ops at this site; onUnblocked runs
	// when the count reaches zero (deferred primary validation).
	blockedRemaining int
	onUnblocked      func()
	// reservedObjs are objects at this site on which this transaction
	// holds primary-copy reservations (released on abort).
	reservedObjs []*object
	// appliedWall is the Observer.NowNanos stamp of the first remote
	// update application (0 with timing disabled); remote commit latency
	// is measured from it.
	appliedWall int64

	// sentMsgs retains the propagation messages sent per destination
	// while the transaction waits (WAL-attached sites only): an
	// anti-entropy session re-sends them so a transaction whose
	// confirmations were lost in a partition still reaches its §3
	// decision. Cleared once the transaction decides.
	sentMsgs map[vtime.SiteID][]wire.Message
}

// Tx is the execution context handed to Txn.Execute. Model-object
// accessors on the facade types funnel through it so reads and writes are
// recorded for concurrency control. A Tx is only valid during Execute.
type Tx struct {
	s  *Site
	st *txnState
	// err latches an internal error (e.g. structural misuse) that turns
	// into a programmed abort when Execute returns.
	err error
}

// VT returns the transaction's virtual time.
func (tx *Tx) VT() vtime.VT { return tx.st.vt }

// Site returns the originating site's identifier.
func (tx *Tx) Site() vtime.SiteID { return tx.s.id }

// fail latches an internal error.
func (tx *Tx) fail(err error) {
	if tx.err == nil {
		tx.err = err
	}
}

// findRead returns the read record for obj, if any.
func (tx *Tx) findRead(obj *object) *readRec {
	for _, r := range tx.st.reads {
		if r.obj == obj {
			return r
		}
	}
	return nil
}

// findWrite returns the write record for obj, if any.
func (tx *Tx) findWrite(obj *object) *writeRec {
	for _, w := range tx.st.writes {
		if w.obj == obj {
			return w
		}
	}
	return nil
}

// recordRead notes that the transaction read obj's current value,
// registering tR, tG, and any RC dependencies on uncommitted versions.
// It returns the version read.
func (tx *Tx) recordRead(obj *object) history.Version {
	cur, ok := obj.hist.Current()
	if !ok {
		cur = history.Version{VT: vtime.Zero, Value: defaultValue(obj.kind), Status: history.Committed}
	}
	if w := tx.findWrite(obj); w != nil {
		// Read-your-writes: no new read record, no RC dependency (the
		// version is ours).
		return cur
	}
	if r := tx.findRead(obj); r != nil {
		return cur
	}
	root := obj.replicationRoot()
	r := &readRec{obj: obj, readVT: cur.VT, graphVT: root.graphVT}
	tx.st.reads = append(tx.st.reads, r)
	if cur.Status == history.Pending && cur.VT != tx.st.vt {
		tx.st.rcDeps[cur.VT] = true
	}
	// RC guess on the replication graph value, if it is uncommitted.
	if gcur, ok := root.graphHist.Current(); ok && gcur.Status == history.Pending && gcur.VT != tx.st.vt {
		tx.st.rcDeps[gcur.VT] = true
	}
	// Path RC guesses (paper §3.2.1): transactions that created the path
	// components must commit.
	tx.recordPathDeps(obj)
	return cur
}

// recordPathDeps adds RC dependencies on the uncommitted structural
// transactions that embedded obj's ancestors.
func (tx *Tx) recordPathDeps(obj *object) {
	for cur := obj; cur.parent != nil; cur = cur.parent {
		parent := cur.parent
		var insertVT vtime.VT
		if cur.parentLink.IsKey {
			for i := range parent.entries {
				if parent.entries[i].child == cur {
					insertVT = parent.entries[i].insertVT
				}
			}
		} else {
			if _, le := parent.findChildByTag(cur.parentLink.Tag); le != nil {
				insertVT = le.insertVT
			}
		}
		if insertVT.IsZero() {
			continue
		}
		if v, ok := parent.hist.Get(insertVT); ok && v.Status == history.Pending && insertVT != tx.st.vt {
			tx.st.rcDeps[insertVT] = true
		}
	}
}

// ReadScalar returns obj's current value, recording the read.
func (tx *Tx) ReadScalar(obj *object) any {
	return tx.recordRead(obj).Value
}

// WriteScalar overwrites obj's value at the transaction's VT, applying the
// update locally at once (optimistic execution).
func (tx *Tx) WriteScalar(obj *object, value any) {
	vt := tx.st.vt
	if w := tx.findWrite(obj); w != nil {
		// Second write by the same transaction: replace in place.
		if !obj.hist.SetValue(vt, value) {
			tx.fail(fmt.Errorf("engine: lost own version of %s at %s", obj.id, vt))
			return
		}
		w.ops = []wire.Op{wire.OpSet{Value: value}}
		return
	}
	readVT := vt // blind write: tR = tT (paper §3.1)
	if r := tx.findRead(obj); r != nil {
		readVT = r.readVT
		r.absorbed = true // the RL check rides the update message
	}
	root := obj.replicationRoot()
	w := &writeRec{obj: obj, readVT: readVT, graphVT: root.graphVT, ops: []wire.Op{wire.OpSet{Value: value}}}
	tx.st.writes = append(tx.st.writes, w)
	if err := obj.hist.InsertRead(vt, value, history.Pending, readVT); err != nil {
		tx.fail(fmt.Errorf("engine: apply write: %w", err))
		return
	}
	tx.st.applied = append(tx.st.applied, appliedUpdate{
		obj:  obj,
		undo: func() { obj.hist.Abort(vt) },
	})
	tx.recordPathDeps(obj)
}

// AddScalar applies a commutative numeric increment to obj at the
// transaction's VT. Unlike WriteScalar, an add that reads nothing is
// order-independent: it becomes a merge version in the history and — when
// the whole transaction is commutative — commits on the fast path without
// the primary round-trip.
func (tx *Tx) AddScalar(obj *object, delta any) {
	vt := tx.st.vt
	if w := tx.findWrite(obj); w != nil {
		// Second op by the same transaction on obj: fold into one op.
		if len(w.ops) == 1 {
			switch prev := w.ops[0].(type) {
			case wire.OpAdd:
				combined := addDelta(prev.Delta, delta)
				w.ops = []wire.Op{wire.OpAdd{Delta: combined}}
				obj.hist.Abort(vt)
				if err := obj.hist.InsertMerge(vt, history.Pending, w.readVT, mergeAdd(combined)); err != nil {
					tx.fail(fmt.Errorf("engine: apply add: %w", err))
				}
				return
			case wire.OpSet:
				// Add over the transaction's own absolute write stays
				// absolute.
				nv := addDelta(prev.Value, delta)
				if !obj.hist.SetValue(vt, nv) {
					tx.fail(fmt.Errorf("engine: lost own version of %s at %s", obj.id, vt))
					return
				}
				w.ops = []wire.Op{wire.OpSet{Value: nv}}
				return
			}
		}
		tx.fail(fmt.Errorf("engine: Add after structural ops on %s", obj.id))
		return
	}
	readVT := vt // an add reads nothing: tR = tT
	if r := tx.findRead(obj); r != nil {
		readVT = r.readVT
		r.absorbed = true // the RL check rides the update message
	}
	root := obj.replicationRoot()
	w := &writeRec{obj: obj, readVT: readVT, graphVT: root.graphVT, ops: []wire.Op{wire.OpAdd{Delta: delta}}}
	tx.st.writes = append(tx.st.writes, w)
	if err := obj.hist.InsertMerge(vt, history.Pending, readVT, mergeAdd(delta)); err != nil {
		tx.fail(fmt.Errorf("engine: apply add: %w", err))
		return
	}
	tx.st.applied = append(tx.st.applied, appliedUpdate{
		obj:  obj,
		undo: func() { obj.hist.Abort(vt) },
	})
	tx.recordPathDeps(obj)
}

// Submit schedules txn for execution at this site and returns its handle.
func (s *Site) Submit(txn *Txn) *Handle {
	h := newHandle()
	h.submittedWall = s.obs.NowNanos()
	s.stats.Submitted.Add(1)
	s.doOrDrop(
		func() { s.execute(txn, h, 0) },
		func() { h.finish(Result{Err: ErrSiteStopped}) },
	)
	return h
}

// execute runs one (re-)execution attempt inside the event loop.
func (s *Site) execute(txn *Txn, h *Handle, retries int) {
	vt := s.clock.Next()
	st := &txnState{
		vt:           vt,
		origin:       s.id,
		status:       txnExecuting,
		txn:          txn,
		handle:       h,
		rcDeps:       map[vtime.VT]bool{},
		waitConfirms: map[vtime.SiteID]bool{},
		involved:     map[vtime.SiteID]bool{s.id: true},
		retries:      retries,
	}
	s.trackTxn(st)

	if s.obs.TraceEnabled() {
		if retries == 0 {
			s.trace(obs.EvSubmit, vt, 0, txn.Name)
		}
		s.trace(obs.EvExecute, vt, 0, "attempt "+strconv.Itoa(retries+1))
	}

	tx := &Tx{s: s, st: st}
	err := runUserExecute(txn, tx)
	if err == nil {
		err = tx.err
	}
	if err != nil {
		// Programmed abort: undo, no retry (paper §2.4).
		s.undoApplied(st)
		st.status = txnAborted
		delete(s.txns, vt)
		s.stats.ProgrammedAborts.Add(1)
		if s.obs.TraceEnabled() {
			s.trace(obs.EvAbort, vt, 0, "programmed: "+err.Error())
		}
		if txn.OnAbort != nil {
			abortErr := err
			s.notify(func() { txn.OnAbort(abortErr) })
		}
		h.finish(Result{Err: fmt.Errorf("%w: %w", ErrAborted, err), Retries: retries, VT: vt})
		return
	}
	s.finishExecution(st)
}

// runUserExecute invokes user code, converting panics into errors so a
// faulty transaction cannot crash the site (paper §2.4: "Any uncaught
// exceptions are turned into transaction aborts").
func runUserExecute(txn *Txn, tx *Tx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: panic in transaction %q: %v", txn.Name, r)
		}
	}()
	return txn.Execute(tx)
}

// finishExecution propagates a locally executed transaction: optimistic
// view notifications, update/check messages, local primary checks, and —
// when nothing remote is involved — immediate commit.
func (s *Site) finishExecution(st *txnState) {
	st.status = txnWaiting
	st.handle.markApplied()

	// Optimistic views see the update as soon as it executes locally
	// (paper §4.1).
	s.scheduleOptimistic(st.appliedObjects(), st.vt)

	// A transaction made purely of commutative ops commits here and now —
	// no guess, no reservation, no confirm round-trip.
	if s.tryFastPath(st) {
		return
	}

	s.propagate(st)

	if st.denied {
		s.decide(st, false, st.deniedCause)
		return
	}
	s.registerRCDeps(st)
	s.checkTxnComplete(st)
}

// appliedObjects returns the distinct objects this transaction modified
// locally. (One or two, several times per decision: a scan of the result
// beats a map per call.)
func (st *txnState) appliedObjects() []*object {
	return st.appliedSince(0)
}

// appliedSince is appliedObjects over st.applied[from:]: what one
// message (or one drained indirect update) newly applied.
func (st *txnState) appliedSince(from int) []*object {
	var out []*object
	for _, a := range st.applied[from:] {
		if !slices.Contains(out, a.obj) {
			out = append(out, a.obj)
		}
	}
	return out
}

// decided reports whether the transaction's outcome is known here.
func (st *txnState) decided() bool {
	return st.status == txnCommitted || st.status == txnAborted
}

// registerRCDeps wires the transaction's RC guesses to this site's
// outcome notifications.
func (s *Site) registerRCDeps(st *txnState) {
	for _, dep := range sortedVTs(st.rcDeps) {
		dep := dep
		if known, ok := s.outcomes[dep]; ok {
			if known {
				delete(st.rcDeps, dep)
			} else {
				st.denied = true
				st.deniedCause = &cause{kind: causeRCReadAborted, vt: dep}
			}
			continue
		}
		s.rcWaiters[dep] = append(s.rcWaiters[dep], func(committed bool) {
			if st.status != txnWaiting {
				return
			}
			if committed {
				delete(st.rcDeps, dep)
				s.checkTxnComplete(st)
			} else {
				s.decide(st, false, &cause{kind: causeRCAborted, vt: dep})
			}
		})
	}
	if st.denied {
		s.decide(st, false, st.deniedCause)
	}
}

// checkTxnComplete commits the transaction once every guess is confirmed.
func (s *Site) checkTxnComplete(st *txnState) {
	if st.status != txnWaiting || st.denied {
		return
	}
	if st.delegatedTo != 0 {
		return // the delegate decides
	}
	if len(st.waitConfirms) > 0 || len(st.rcDeps) > 0 || st.extraPending > 0 {
		return
	}
	s.decide(st, true, nil)
}
