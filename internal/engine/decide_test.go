package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// wireLog records every message the sites of a harness hand their
// transports, in order.
type wireLog struct {
	mu   sync.Mutex
	sent []sentMsg
}

type sentMsg struct {
	from, to vtime.SiteID
	msg      wire.Message
}

func (l *wireLog) add(from, to vtime.SiteID, msgs ...wire.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range msgs {
		l.sent = append(l.sent, sentMsg{from, to, m})
	}
}

func (l *wireLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent = nil
}

// outcomes lists the Outcomes site from sent for transactions originated
// at origin, as "→to commit" or "→to abort".
func (l *wireLog) outcomes(from, origin vtime.SiteID) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, s := range l.sent {
		if o, ok := s.msg.(wire.Outcome); ok && s.from == from && o.TxnVT.Site == origin {
			verdict := "abort"
			if o.Committed {
				verdict = "commit"
			}
			out = append(out, fmt.Sprintf("→%d %s", s.to, verdict))
		}
	}
	return out
}

// sentAny reports whether site from sent a message of the same type as
// like.
func (l *wireLog) sentAny(from vtime.SiteID, like wire.Message) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.sent {
		if s.from == from && s.msg.Kind() == like.Kind() {
			return true
		}
	}
	return false
}

// loggedEndpoint records what its site sends into a wireLog.
type loggedEndpoint struct {
	transport.Endpoint
	log *wireLog
}

func (e loggedEndpoint) Send(to vtime.SiteID, sentAt vtime.VT, msg wire.Message) error {
	e.log.add(e.Site(), to, msg)
	return e.Endpoint.Send(to, sentAt, msg)
}

func (e loggedEndpoint) SendBatch(to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error {
	e.log.add(e.Site(), to, msgs...)
	return e.Endpoint.SendBatch(to, sentAt, msgs)
}

// newLoggedHarness builds an n-site harness whose sends are recorded.
func newLoggedHarness(t *testing.T, n int, opts Options) (*harness, *wireLog) {
	t.Helper()
	log := &wireLog{}
	h := newHarnessWrapped(t, n, transport.Config{}, opts, func(ep transport.Endpoint) transport.Endpoint {
		return loggedEndpoint{Endpoint: ep, log: log}
	})
	return h, log
}

// recordingScheduler is an engine Scheduler that records the delay of
// each piece of work it is handed and runs the work at once.
type recordingScheduler struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (r *recordingScheduler) AfterFunc(d time.Duration, fn func()) (cancel func()) {
	r.mu.Lock()
	r.delays = append(r.delays, d)
	r.mu.Unlock()
	go fn()
	return func() {}
}

func (r *recordingScheduler) take() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.delays
	r.delays = nil
	return d
}

// TestDecisionRoles drives one transaction through each role a site can
// play in its decision (paper §3.1, §3.4, DESIGN.md §15), once committed
// and once aborted, and checks the same observables in every row: the
// role site's Stats and accounting identities, the Handle's result, what
// a pessimistic view at the role site hears, the Outcomes the role site
// sends, and that nothing is handed to the Scheduler (a retry re-executes
// at once).
//
// Site 2 originates every transaction; x's primary copy is at site 1, so
// site 1 decides as delegate; site 3 is a further replica. A transaction
// that also writes y, whose primary copy is at site 3, has two remote
// primaries, so its origin decides it. An aborted row has site 1 deny
// site 2's first write, so its first attempt aborts and its retry
// commits. The fast path has no abort: nothing can deny a commutative
// transaction.
func TestDecisionRoles(t *testing.T) {
	const (
		write     = "write"      // site 2 writes x
		writeBoth = "write-both" // site 2 writes x and y: the origin decides
		add       = "add"        // site 2 adds to x: the commutative fast path
		orphan    = "orphan"     // site 2 fails before anyone hears its decision
	)
	cases := []struct {
		name string
		role int
		run  string
		// deny aborts the first attempt; for an orphan it means no
		// survivor saw a COMMIT.
		deny bool

		commits, aborts, fastpath uint64
		outcomes                  []string
	}{
		{name: "origin-confirmed/commit", role: 2, run: writeBoth,
			commits: 1, outcomes: []string{"→1 commit", "→3 commit"}},
		{name: "origin-confirmed/abort", role: 2, run: writeBoth, deny: true,
			commits: 1, aborts: 1, outcomes: []string{"→1 abort", "→3 abort", "→1 commit", "→3 commit"}},
		{name: "origin-delegated/commit", role: 2, run: write, commits: 1},
		// The delegate's denial reaches the origin as an Outcome.
		{name: "origin-delegated/abort", role: 2, run: write, deny: true, commits: 1, aborts: 1},
		{name: "delegate/commit", role: 1, run: write, outcomes: []string{"→2 commit", "→3 commit"}},
		{name: "delegate/abort", role: 1, run: write, deny: true,
			outcomes: []string{"→2 abort", "→3 abort", "→2 commit", "→3 commit"}},
		{name: "replica/commit", role: 3, run: write},
		{name: "replica/abort", role: 3, run: write, deny: true},
		{name: "fast-origin/commit", role: 2, run: add, commits: 1, fastpath: 1},
		{name: "fast-replica/commit", role: 3, run: add},
		{name: "orphan/commit", role: 3, run: orphan},
		{name: "orphan/abort", role: 3, run: orphan, deny: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sched := &recordingScheduler{}
			h, log := newLoggedHarness(t, 3, Options{Scheduler: sched})
			role := h.site(tc.role)
			members := []int{1, 2, 3}
			if tc.run == orphan {
				members = []int{1, 3} // site 2 hosts nothing: its failure needs no graph repair
			}
			x := h.joined(KindInt, "x", int64(0), members...)
			var y map[int]ObjRef
			if tc.run == writeBoth {
				y = h.joined(KindInt, "y", int64(0), 3, 1, 2)
			}
			if tc.deny && tc.run != orphan {
				denied := false // read and written on site 1's event loop only
				h.site(1).SetAuthorizer(func(req AuthRequest) error {
					if req.Kind == AuthWrite && req.Requester == 2 && !denied {
						denied = true
						return errors.New("denied once")
					}
					return nil
				})
			}
			live := members
			if tc.run != orphan {
				live = []int{1, 2, 3}
			}
			settled := func() bool {
				for _, i := range live {
					if !h.site(i).Quiescent() || h.site(i).PendingUndecided() != 0 || h.site(i).WaitingLocal() != 0 {
						return false
					}
				}
				return true
			}
			h.eventually(3*time.Second, "setup settled", settled)
			rec := &recorder{}
			if _, err := role.AttachView([]ObjRef{x[tc.role]}, Pessimistic, rec.fns()); err != nil {
				t.Fatal(err)
			}
			h.eventually(3*time.Second, "view attached", settled)
			before := role.Stats()
			sched.take()
			log.reset()

			var vt vtime.VT
			var res Result
			switch tc.run {
			case write, writeBoth, add:
				res = h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
					switch tc.run {
					case add:
						return tx.Add(x[2], int64(5))
					case writeBoth:
						if err := tx.Write(y[2], int64(5)); err != nil {
							return err
						}
					}
					return tx.Write(x[2], int64(5))
				}}).Wait()
				vt = res.VT
				wantRetries := 0
				if tc.deny {
					wantRetries = 1
				}
				if !res.Committed || res.Retries != wantRetries {
					t.Fatalf("result %+v, want committed after %d retries", res, wantRetries)
				}
			case orphan:
				// Site 3 applies an update of site 2's transaction at vt,
				// then site 2 fails before any decision reaches site 3.
				// Site 1 saw a COMMIT unless the row denies.
				vt = vtime.VT{Time: 1 << 20, Site: 2}
				w := remoteWrite(role, x[3], vt, wire.OpSet{Value: int64(5)}, false)
				_ = role.call(func() { role.handleMessage(2, w) })
				if !tc.deny {
					_ = h.site(1).call(func() { h.site(1).handleMessage(2, wire.Outcome{TxnVT: vt, Committed: true}) })
				}
				h.net.Kill(2)
			}
			// The pessimistic view hears the committed transaction once,
			// and never an aborted attempt. (Its snapshot may still wait
			// for a CONFIRM-READ in flight when every site is idle.)
			var wantHeard []vtime.VT
			if tc.run != orphan || !tc.deny {
				wantHeard = []vtime.VT{vt}
			}
			heard := func() []vtime.VT {
				var ts []vtime.VT
				ups, _ := rec.snapshot()
				for i, u := range ups {
					if i > 0 { // the first notification is the attach snapshot
						ts = append(ts, u.TS)
					}
				}
				return ts
			}
			h.eventually(3*time.Second, "the decision settled everywhere", func() bool {
				return len(heard()) >= len(wantHeard) && settled()
			})
			if heard := heard(); !slices.Equal(heard, wantHeard) {
				t.Errorf("pessimistic view at site %d heard %v, want %v", tc.role, heard, wantHeard)
			}

			after := role.Stats()
			got := [4]uint64{after.Commits - before.Commits, after.ConflictAborts - before.ConflictAborts,
				after.Retries - before.Retries, after.FastpathCommits - before.FastpathCommits}
			if want := [4]uint64{tc.commits, tc.aborts, tc.aborts, tc.fastpath}; got != want {
				t.Errorf("site %d counted commits/conflict aborts/retries/fast-path commits %v, want %v", tc.role, got, want)
			}
			for _, i := range live {
				if v := h.site(i).Stats().IdentityViolations(0); len(v) > 0 {
					t.Errorf("site %d: %v", i, v)
				}
			}
			if got := log.outcomes(vtime.SiteID(tc.role), 2); !slices.Equal(got, tc.outcomes) {
				t.Errorf("site %d sent Outcomes %v, want %v", tc.role, got, tc.outcomes)
			}
			if got := sched.take(); len(got) != 0 {
				t.Errorf("scheduled delays %v, want none", got)
			}
		})
	}
}

func TestDelegatedGraphCommitRunsGraphHooks(t *testing.T) {
	// Site 2 leaves the relationship of a replicated tuple whose primary
	// is site 1, so site 1 decides the leave as its delegate (paper
	// §3.1). A committed graph update runs the graph-op hooks wherever it
	// commits, the delegate and the origin included: retries parked on a
	// failed primary resume (§3.4), and the delegate, which hosts the
	// primary of the tuple's promoted child, refreshes that child's
	// replica set (§3.2.2), starting with PromoteQuery messages.
	h, log := newLoggedHarness(t, 3, Options{})
	tree := h.joined(KindTuple, "tree", nil, 1, 2, 3)
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		_, err := tx.TupleSet(tree[1], "b", wire.ChildDecl{Kind: KindInt, Value: int64(1)})
		return err
	}}).Wait(); !res.Committed {
		t.Fatalf("embed: %+v", res)
	}
	var child ObjRef
	h.eventually(3*time.Second, "child materialized at site 1", func() bool {
		_ = h.site(1).call(func() {
			if c := tree[1].o.liveChild("b"); c != nil {
				child = ObjRef{o: c}
			}
		})
		return child.o != nil
	})
	promoted := h.site(1).Promote(child).Wait()
	if !promoted.Committed {
		t.Fatalf("promote: %+v", promoted)
	}
	// The promotion commits a graph update too: park only once every site
	// has settled it.
	h.eventually(3*time.Second, "the promotion committed everywhere", func() bool {
		for i := 1; i <= 3; i++ {
			s, committed := h.site(i), false
			_ = s.call(func() { committed, _ = s.outcomes.get(promoted.VT) })
			if !committed || !s.Quiescent() {
				return false
			}
		}
		return true
	})

	resumed := map[int]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	for i, ch := range resumed {
		s, ch := h.site(i), ch
		_ = s.call(func() {
			s.parked = append(s.parked, parkedRetry{retry: func() { close(ch) }, handle: newHandle()})
		})
	}
	log.reset()

	if res := h.site(2).LeaveRelationship(ObjRef{}, "", tree[2]).Wait(); !res.Committed {
		t.Fatalf("leave: %+v", res)
	}
	for i, ch := range resumed {
		select {
		case <-ch:
		case <-time.After(3 * time.Second):
			t.Errorf("the retry parked at site %d never resumed after the leave committed there", i)
		}
	}
	h.eventually(3*time.Second, "the delegate refreshing the promoted child", func() bool {
		return log.sentAny(1, wire.PromoteQuery{})
	})
}
