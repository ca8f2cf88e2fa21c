package engine

import (
	"os"
	"path/filepath"
	"testing"

	"decaf/internal/obs"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wal"
	"decaf/internal/wire"
)

// walOrderEndpoint checks the write-ahead rule at every SendBatch (the
// engine's only way out) of a stepped site: every record its log has
// appended is in the segment files, and when the batch in progress has
// appended records, the log has fsynced since the batch began. The test
// sets before ahead of each batch; sends and checks run on the test
// goroutine, inside Step.
type walOrderEndpoint struct {
	transport.Endpoint
	t      *testing.T
	log    *wal.Log
	dir    string
	before wal.Stats
	sends  int
}

func (e *walOrderEndpoint) SendBatch(to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error {
	e.sends++
	st := e.log.Stats()
	if onDisk := segmentBytes(e.t, e.dir); onDisk != st.Bytes {
		e.t.Errorf("site %s sends with %d log bytes appended but %d in its files", e.Site(), st.Bytes, onDisk)
	}
	if st.Records > e.before.Records && st.Syncs == e.before.Syncs {
		e.t.Errorf("site %s sends %d records into its batch without an fsync", e.Site(), st.Records-e.before.Records)
	}
	return e.Endpoint.SendBatch(to, sentAt, msgs)
}

// segmentBytes sums the sizes of the log's segment files in dir.
func segmentBytes(t *testing.T, dir string) int64 {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Error(err)
	}
	var n int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Error(err)
			continue
		}
		n += fi.Size()
	}
	return n
}

// onDiskDecision reports whether the segment files in dir hold the
// decision record of vt: its Outcome, or the FastWrite that carries a
// fast-path commit. It reads a copy of the files, so the live log is left
// alone.
func onDiskDecision(t *testing.T, dir string, vt vtime.VT) bool {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := wal.Open(cp, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	found := false
	if err := l.Replay(func(rec wal.Record) error {
		if rec.Kind != wal.RecordMessage || rec.Origin != vt.Site || rec.Time != vt.Time {
			return nil
		}
		msg, _, err := wire.DecodeMessage(rec.Payload)
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case wire.Outcome:
			found = found || m.TxnVT == vt && m.Committed
		case wire.FastWrite:
			found = found || m.TxnVT == vt
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return found
}

// steppedWALSites is n sites that are never started, each with a
// SyncBatch WAL behind a walOrderEndpoint; the test runs their batches.
type steppedWALSites struct {
	t     *testing.T
	sites []*Site
	eps   []*walOrderEndpoint
}

func newSteppedWALSites(t *testing.T, n int) *steppedWALSites {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	w := &steppedWALSites{t: t, sites: make([]*Site, n+1), eps: make([]*walOrderEndpoint, n+1)}
	for i := 1; i <= n; i++ {
		ep, err := net.Endpoint(vtime.SiteID(i))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		l := openTestWAL(t, dir)
		w.eps[i] = &walOrderEndpoint{Endpoint: ep, t: t, log: l, dir: dir}
		w.sites[i] = NewSite(w.eps[i], Options{WAL: l})
	}
	t.Cleanup(func() {
		for _, s := range w.sites[1:] {
			s.Stop()
		}
		net.Close()
	})
	return w
}

// round runs one batch at every site that has work, and reports whether
// any had.
func (w *steppedWALSites) round() bool {
	progress := false
	for i, s := range w.sites[1:] {
		w.eps[i+1].before = w.eps[i+1].log.Stats()
		if s.Step() {
			progress = true
		}
	}
	return progress
}

// wait runs rounds until h has finished, then until every site is idle.
func (w *steppedWALSites) wait(h *Handle) Result {
	w.t.Helper()
	for len(h.done) == 0 {
		if !w.round() {
			w.t.Fatal("sites idle with the transaction unfinished")
		}
	}
	for w.round() {
	}
	return <-h.done
}

// submit runs txn at site i and checks, at the moment its committed
// Result is released, that the batch's log records are fsynced and the
// origin's log files hold the transaction's decision.
func (w *steppedWALSites) submit(i int, txn *Txn) Result {
	w.t.Helper()
	h := w.sites[i].Submit(txn)
	released := false
	h.cont = func(r Result) {
		released = true
		if !r.Committed {
			return
		}
		e := w.eps[i]
		if st := e.log.Stats(); st.Syncs == e.before.Syncs {
			w.t.Errorf("site %d released %s before its batch's records were fsynced", i, r.VT)
		}
		if !onDiskDecision(w.t, e.dir, r.VT) {
			w.t.Errorf("site %d released %s before its log held the decision", i, r.VT)
		}
	}
	res := w.wait(h)
	if !released {
		w.t.Fatal("result delivered without passing the release hook")
	}
	return res
}

// TestBatchLogWrittenBeforeOutboxLeaves checks group commit's order at
// both sites of a replicated object, for guessed and fast-path commits,
// as origin and as primary: a batch's log records are written and
// fsynced before any of its messages leave (walOrderEndpoint) and before
// any of its commit results is released (steppedWALSites.submit).
func TestBatchLogWrittenBeforeOutboxLeaves(t *testing.T) {
	w := newSteppedWALSites(t, 2)
	refs := map[int]ObjRef{}
	counters := map[int]ObjRef{}
	for i := 1; i <= 2; i++ {
		var err error
		if refs[i], err = w.sites[i].CreateObject(KindInt, "x", int64(0)); err != nil {
			t.Fatal(err)
		}
		if counters[i], err = w.sites[i].CreateObject(KindInt, "n", int64(0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []map[int]ObjRef{refs, counters} {
		if res := w.wait(w.sites[2].JoinObject(m[2], 1, m[1].ID())); !res.Committed {
			t.Fatalf("join: %+v", res)
		}
	}
	for k := int64(1); k <= 5; k++ {
		for i := 1; i <= 2; i++ {
			ref, counter := refs[i], counters[i]
			if res := w.submit(i, &Txn{Name: "set", Execute: func(tx *Tx) error { return tx.Write(ref, k) }}); !res.Committed {
				t.Fatalf("write %d at site %d: %+v", k, i, res)
			}
			if res := w.submit(i, &Txn{Name: "add", Execute: func(tx *Tx) error { return tx.Add(counter, int64(1)) }}); !res.Committed {
				t.Fatalf("add at site %d: %+v", i, res)
			}
		}
	}
	for i := 1; i <= 2; i++ {
		if w.eps[i].sends == 0 {
			t.Fatalf("site %d sent nothing", i)
		}
		if got, _ := w.sites[i].ReadCommitted(counters[i]); got != int64(10) {
			t.Fatalf("site %d counts %v, want 10", i, got)
		}
	}
}

// groupCommitSites builds n started sites on one network, each with a
// SyncBatch WAL and its own observer.
func groupCommitSites(t *testing.T, n int) (*harness, []*obs.Observer) {
	t.Helper()
	h := &harness{t: t, net: transport.NewNetwork(transport.Config{}), sites: map[vtime.SiteID]*Site{}}
	observers := make([]*obs.Observer, n+1)
	for i := 1; i <= n; i++ {
		id := vtime.SiteID(i)
		ep, err := h.net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		observers[i] = obs.New()
		s := NewSite(ep, Options{WAL: openTestWAL(t, t.TempDir()), Observer: observers[i]})
		s.Start()
		h.sites[id] = s
	}
	t.Cleanup(func() {
		for _, s := range h.sites {
			s.Stop()
		}
		h.net.Close()
	})
	return h, observers
}

// TestWALGroupCommitOneWritePerBatch checks that the log is written at
// most once per event-loop batch however many records the batch appends,
// as the decaf_wal_writes gauge reports.
func TestWALGroupCommitOneWritePerBatch(t *testing.T) {
	h, observers := groupCommitSites(t, 2)
	refs := h.joined(KindInt, "x", int64(0), 1, 2)
	for k := int64(1); k <= 20; k++ {
		if res := h.setInt(1+int(k%2), refs[1+int(k%2)], k); !res.Committed {
			t.Fatalf("write %d: %+v", k, res)
		}
	}
	for i := 1; i <= 2; i++ {
		st := h.site(i).wal.Stats()
		reg := observers[i].Metrics()
		batches, _ := reg.Value("decaf_engine_batches_total")
		writes, _ := reg.Value("decaf_wal_writes")
		if int64(writes) != st.Writes {
			t.Errorf("site %d: decaf_wal_writes = %v, Stats().Writes = %d", i, writes, st.Writes)
		}
		if float64(st.Writes) > batches {
			t.Errorf("site %d: %d log writes in %v batches", i, st.Writes, batches)
		}
		if st.Records <= st.Writes {
			t.Errorf("site %d: %d records took %d writes", i, st.Records, st.Writes)
		}
	}
}

// TestWALAppendMsgAllocatesNothing checks that logging a decision in
// steady state allocates nothing: the message is encoded into the site's
// scratch buffer and framed into the log's pending buffer.
func TestWALAppendMsgAllocatesNothing(t *testing.T) {
	l, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	net := transport.NewNetwork(transport.Config{})
	defer net.Close()
	ep, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(ep, Options{WAL: l})
	defer s.Stop()
	vt := vtime.VT{Time: 7, Site: 1}
	appendOutcome := func() {
		s.walAppendMsg(vt, wire.Outcome{TxnVT: vt, Committed: true})
	}
	// Grow both buffers to a batch's size, then write the batch out.
	for range 256 {
		appendOutcome()
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(64, appendOutcome); n != 0 {
		t.Fatalf("walAppendMsg of an Outcome: %v allocations", n)
	}
	if st := l.Stats(); st.Records != 256+65 {
		t.Fatalf("%d records appended, want %d", st.Records, 256+65)
	}
}
