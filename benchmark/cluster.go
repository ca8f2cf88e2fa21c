package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"decaf/internal/engine"
	"decaf/internal/obs"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wal"
)

const numSites = 3

// opDeadline bounds every wait on the engine: a transaction, a join or
// quiescence that takes longer is a failure, never a hang.
const opDeadline = 5 * time.Second

// traceCapacity sizes each site's obs trace ring in a traced run. The
// traced window ends before any ring fills (see runWindow), so no event
// is overwritten.
const traceCapacity = 1 << 18

// memQueue is the delivery buffer of an in-memory endpoint. The network
// drops what arrives at a full buffer and nothing retransmits it, so a
// site whose event loop loses its vCPU for 100 ms while the others keep
// committing (seen on the reference VM) overflows the default 4096, its
// replicas fall behind for good and its transactions never decide.
const memQueue = 1 << 16

// maxRetries is the engine's retry budget in every workload. With the
// default of 100, one views-mem run in ten loses a few of its 300000
// transactions to the budget (135 attempts seen), and a workload on
// which operations fail cannot be gated.
const maxRetries = 1000

// walOptions are the log options of a workload: 4 MiB segments, fsync per
// event-loop batch or never.
func walOptions(mode walMode) wal.Options {
	opts := wal.Options{SegmentBytes: 4 << 20, Sync: wal.SyncBatch}
	if mode == walAppend {
		opts.Sync = wal.SyncNever
	}
	return opts
}

// viewNote is one Update a view received.
type viewNote struct {
	ts vtime.VT
	at time.Duration
}

// viewRec is one attached view and everything it was told.
type viewRec struct {
	site int // site ID
	mode engine.ViewMode

	mu    sync.Mutex
	notes []viewNote // guarded by mu
}

func (v *viewRec) taken() []viewNote {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]viewNote(nil), v.notes...)
}

// cluster is three engine sites with their transport, logs, objects and
// views. Sites, objects and logs are indexed by site ID - 1.
type cluster struct {
	w      *workload
	traced bool
	epoch  time.Time

	net   *transport.Network
	tcps  []*transport.TCP
	taps  *tapNet
	sites []*engine.Site
	logs  []*wal.Log
	dir   string // holds the WAL directories; removed on close

	objs  [][]engine.ObjRef // [site][object]
	views []*viewRec

	// checkpoint is site 3's state at the end of the joins; the WAL
	// workload recovers a fresh site 3 from it plus the log.
	checkpoint []byte
	joinMs     []float64

	// Committed transactions since the views attached: all, and those on
	// an object that carries views.
	commits       int
	viewedCommits int
}

func (c *cluster) now() time.Duration { return time.Since(c.epoch) }

func (c *cluster) site(id int) *engine.Site { return c.sites[id-1] }

// newCluster builds the sites, replicates the objects everywhere and
// attaches the views. It does not run the warm-up.
func newCluster(w *workload, traced bool, scratch string) (c *cluster, err error) {
	c = &cluster{w: w, traced: traced, epoch: time.Now()}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if traced {
		c.taps = newTapNet(c.epoch)
	}

	eps := make([]transport.Endpoint, numSites)
	if w.tcp {
		for id := 1; id <= numSites; id++ {
			t, err := transport.ListenTCPOptions(vtime.SiteID(id), "127.0.0.1:0", nil, transport.TCPOptions{})
			if err != nil {
				return c, err
			}
			c.tcps = append(c.tcps, t)
			eps[id-1] = t
		}
		for _, a := range c.tcps {
			for _, b := range c.tcps {
				if a != b {
					a.SetPeerAddr(b.Site(), b.Addr().String())
				}
			}
		}
	} else {
		c.net = transport.NewNetwork(transport.Config{Latency: w.delay, QueueSize: memQueue})
		for id := 1; id <= numSites; id++ {
			ep, err := c.net.Endpoint(vtime.SiteID(id))
			if err != nil {
				return c, err
			}
			eps[id-1] = ep
		}
	}

	if w.wal != walOff {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return c, err
		}
		if c.dir, err = os.MkdirTemp(scratch, "wal-"); err != nil {
			return c, err
		}
	}
	for id := 1; id <= numSites; id++ {
		opts := engine.Options{MaxRetries: maxRetries}
		if w.wal != walOff {
			log, err := wal.Open(c.walDir(id), walOptions(w.wal))
			if err != nil {
				return c, err
			}
			c.logs = append(c.logs, log)
			opts.WAL = log
		}
		ep := eps[id-1]
		if traced {
			opts.Observer = obs.NewWithConfig(obs.Config{TraceCapacity: traceCapacity})
			ep = c.taps.wrap(ep)
		}
		s := engine.NewSite(ep, opts)
		s.Start()
		c.sites = append(c.sites, s)
	}

	c.objs = make([][]engine.ObjRef, numSites)
	for k := 0; k < w.nobj; k++ {
		primary := 1
		if w.spread {
			primary = 1 + k%numSites
		}
		refs, err := c.replicate(fmt.Sprintf("obj%d", k), primary)
		if err != nil {
			return c, err
		}
		for i := range refs {
			c.objs[i] = append(c.objs[i], refs[i])
		}
	}
	// The joins must have settled everywhere before a view attaches, or
	// the view hears a join's commit as an update.
	if err := c.waitTopology(); err != nil {
		return c, err
	}
	if err := c.quiesce(); err != nil {
		return c, err
	}
	for id := 1; id <= numSites; id++ {
		if id > 1 && !w.viewsEverywhere {
			break
		}
		var refs []engine.ObjRef
		for k, ref := range c.objs[id-1] {
			if w.viewed(k) {
				refs = append(refs, ref)
			}
		}
		if err := c.attachPair(id, refs); err != nil {
			return c, err
		}
	}

	if w.wal != walOff {
		var buf bytes.Buffer
		if err := c.site(3).Checkpoint(&buf); err != nil {
			return c, fmt.Errorf("set-up checkpoint: %w", err)
		}
		c.checkpoint = buf.Bytes()
	}
	return c, nil
}

func (c *cluster) walDir(id int) string { return filepath.Join(c.dir, fmt.Sprintf("site%d", id)) }

// replicate creates an Int at the primary site and joins one replica per
// other site to it, timing each join.
func (c *cluster) replicate(name string, primary int) ([]engine.ObjRef, error) {
	refs := make([]engine.ObjRef, numSites)
	root, err := c.site(primary).CreateObject(engine.KindInt, name, int64(0))
	if err != nil {
		return nil, err
	}
	refs[primary-1] = root
	for id := 1; id <= numSites; id++ {
		if id == primary {
			continue
		}
		local, err := c.site(id).CreateObject(engine.KindInt, name, int64(0))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, ok := await(c.site(id).JoinObject(local, vtime.SiteID(primary), root.ID()))
		if !ok || !res.Committed {
			return nil, fmt.Errorf("join %s at site %d: timeout=%v %+v", name, id, !ok, res)
		}
		c.joinMs = append(c.joinMs, float64(time.Since(start).Microseconds())/1e3)
		refs[id-1] = local
	}
	return refs, nil
}

// await waits for a handle's result for at most opDeadline.
func await(h *engine.Handle) (engine.Result, bool) {
	t := time.NewTimer(opDeadline)
	defer t.Stop()
	select {
	case r := <-h.Done():
		return r, true
	case <-t.C:
		return engine.Result{}, false
	}
}

// waitTopology waits until every replica knows all three sites and
// agrees on the primary the workload asked for.
func (c *cluster) waitTopology() error {
	deadline := time.Now().Add(opDeadline)
	for {
		settled := true
		for i, s := range c.sites {
			for k, ref := range c.objs[i] {
				sites, err := s.ReplicaSites(ref)
				if err != nil {
					return err
				}
				want := vtime.SiteID(1)
				if c.w.spread {
					want = vtime.SiteID(1 + k%numSites)
				}
				if got, _ := s.PrimarySite(ref); len(sites) != numSites || got != want {
					settled = false
				}
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication graphs did not settle within %v", opDeadline)
		}
		time.Sleep(time.Millisecond)
	}
}

// attachPair attaches one pessimistic and one optimistic view to refs at
// the given site.
func (c *cluster) attachPair(site int, refs []engine.ObjRef) error {
	for _, mode := range []engine.ViewMode{engine.Pessimistic, engine.Optimistic} {
		v := &viewRec{site: site, mode: mode}
		_, err := c.site(site).AttachView(refs, mode, engine.ViewFuncs{Update: func(d engine.SnapshotData) {
			at := c.now()
			v.mu.Lock()
			v.notes = append(v.notes, viewNote{ts: d.TS, at: at})
			v.mu.Unlock()
		}})
		if err != nil {
			return err
		}
		c.views = append(c.views, v)
	}
	return nil
}

// quiesce waits until no site has work left and no counter moves.
func (c *cluster) quiesce() error {
	pause := 2 * time.Millisecond
	if d := 4 * c.w.delay; d > pause {
		pause = d
	}
	deadline := time.Now().Add(2 * opDeadline)
	var last [2 * numSites]uint64
	for {
		quiet := true
		var cur [2 * numSites]uint64
		for i, s := range c.sites {
			if !s.Quiescent() || s.PendingUndecided() != 0 || s.WaitingLocal() != 0 {
				quiet = false
			}
			st := s.Stats()
			cur[2*i], cur[2*i+1] = st.MessagesSent, st.UpdatesApplied+st.NotifyDelivered
		}
		if quiet && cur == last {
			return nil
		}
		last = cur
		if time.Now().After(deadline) {
			return fmt.Errorf("sites not quiescent %v after the load stopped", 2*opDeadline)
		}
		time.Sleep(pause)
	}
}

// close stops everything the cluster started and removes its files.
func (c *cluster) close() {
	for _, s := range c.sites {
		s.Stop()
	}
	for _, t := range c.tcps {
		t.Close()
	}
	if c.taps != nil {
		c.taps.close()
	}
	if c.net != nil {
		c.net.Close()
	}
	for _, l := range c.logs {
		l.Close()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}
