package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"decaf/internal/engine"
	"decaf/internal/vtime"
	"decaf/internal/wal"
)

// clientsPerOrigin is the number of closed-loop client goroutines at each
// originating site. With two (four transactions in flight) the sites
// idle between transactions and runs fall into one of two regimes whose
// commit_p50_us differ twofold; with four the loops stay busy and runs
// repeat.
const clientsPerOrigin = 4

// opRec is one attempted transaction. Times are offsets from the
// cluster's epoch.
type opRec struct {
	due     time.Duration // when the request was due: in a closed loop, when the client became free
	sent    time.Duration // when Submit was called
	applied time.Duration // Handle.Applied, traced runs only
	done    time.Duration // Handle.Done, or when the deadline hit
	vt      vtime.VT      // VT of the committing attempt
	origin  int
	obj     int
	retries int
	ok      bool // committed before the deadline
	timeout bool
}

// window is everything measured between two instants of one cluster.
type window struct {
	start, end time.Duration
	load       []opRec
	cpu        time.Duration
	counters   [2]map[string]float64 // before, after; summed over the sites
	wal        [2][]wal.Stats
	mem        [2]runtime.MemStats
	tap        [2]tapCounts // traced runs only
	stopped    bool         // ended early because a trace ring was nearly full
}

// limit ends a load: at an instant, after a number of transactions per
// generator, or when stop is set, whichever comes first.
type limit struct {
	until time.Duration
	ops   int
	stop  *atomic.Bool
}

func (l limit) reached(now time.Duration, n int) bool {
	return (l.until > 0 && now >= l.until) || (l.ops > 0 && n >= l.ops) || l.stop.Load()
}

// run submits one transaction and waits for it, for at most opDeadline.
func (c *cluster) run(origin int, txn *engine.Txn, timer *time.Timer, rec *opRec) {
	rec.origin = origin
	rec.sent = c.now()
	h := c.site(origin).Submit(txn)
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(opDeadline)
	if c.traced {
		select {
		case <-h.Applied():
			rec.applied = c.now()
		case <-timer.C:
			rec.done, rec.timeout = c.now(), true
			return
		}
	}
	select {
	case r := <-h.Done():
		rec.done = c.now()
		rec.ok, rec.vt, rec.retries = r.Committed, r.VT, r.Retries
	case <-timer.C:
		rec.done, rec.timeout = c.now(), true
	}
}

// transaction returns the engine transaction of one kind on *ref; the
// caller may repoint ref (and change *set) between submissions.
func transaction(kind opKind, ref *engine.ObjRef, set *int64) *engine.Txn {
	switch kind {
	case opAdd:
		return &engine.Txn{Name: "add", Execute: func(tx *engine.Tx) error { return tx.Add(*ref, int64(1)) }}
	case opSet:
		return &engine.Txn{Name: "set", Execute: func(tx *engine.Tx) error { return tx.Write(*ref, *set) }}
	}
	return &engine.Txn{Name: "rmw", Execute: func(tx *engine.Tx) error {
		v, err := tx.Read(*ref)
		if err != nil {
			return err
		}
		return tx.Write(*ref, v.(int64)+1)
	}}
}

// closedLoop runs one client: the next transaction is submitted when the
// previous one completed. The client draws from objects [lo, hi).
func (c *cluster) closedLoop(origin, lo, hi int, rng *rand.Rand, lim limit) []opRec {
	var ref engine.ObjRef
	var set int64
	var txns []*engine.Txn
	for _, kind := range c.w.mix {
		txns = append(txns, transaction(kind, &ref, &set))
	}
	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	var out []opRec
	for free := c.now(); !lim.reached(free, len(out)); {
		rec := opRec{due: free, obj: lo + rng.Intn(hi-lo)}
		ref, set = c.objs[origin-1][rec.obj], int64(len(out))
		c.run(origin, txns[rng.Intn(len(txns))], timer, &rec)
		out = append(out, rec)
		free = rec.done
		if !rec.ok && lim.ops > 0 {
			lim.stop.Store(true) // a failed warm-up ends the set-up
		}
	}
	return out
}

// openLoop submits transactions on a fixed schedule from start on,
// whether or not earlier ones completed, and returns when all have.
// Origin, object and operation of each are seeded-random.
func (c *cluster) openLoop(rng *rand.Rand, start time.Duration, lim limit) []opRec {
	var (
		mu  sync.Mutex
		out []opRec
		wg  sync.WaitGroup
	)
	w := c.w
	interval := time.Duration(float64(time.Second) / w.rate)
	for i := 0; ; i++ {
		due := start + time.Duration(i)*interval
		if lim.reached(due, i) {
			break
		}
		if wait := due - c.now(); wait > 0 {
			time.Sleep(wait)
		}
		rec := opRec{due: due, obj: rng.Intn(w.nobj)}
		origin := w.origins[rng.Intn(len(w.origins))]
		ref, set := c.objs[origin-1][rec.obj], int64(i)
		kind := w.mix[rng.Intn(len(w.mix))]
		wg.Add(1)
		// At most rate*opDeadline of these are alive at once.
		go func() {
			defer wg.Done()
			timer := time.NewTimer(opDeadline)
			defer timer.Stop()
			c.run(origin, transaction(kind, &ref, &set), timer, &rec)
			mu.Lock()
			out = append(out, rec)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// runWindow drives the workload's load for dur, or until every generator
// has run ops transactions. A traced window also ends when a site's
// trace ring is 85% full, so that no span is overwritten.
func (c *cluster) runWindow(seed int64, dur time.Duration, ops int) *window {
	w := c.w
	var stop atomic.Bool
	win := &window{}
	win.snapshot(c, 0)
	win.start = c.now()
	lim := limit{ops: ops, stop: &stop}
	if dur > 0 {
		lim.until = win.start + dur
	}
	cpu0 := cpuTime()

	var wg sync.WaitGroup
	var mu sync.Mutex
	if w.rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.load = c.openLoop(rand.New(rand.NewSource(seed)), win.start, lim)
		}()
	} else {
		clients := clientsPerOrigin * len(w.origins)
		for j := 0; j < clients; j++ {
			origin, lo, hi := w.origins[j/clientsPerOrigin], 0, w.nobj
			if !w.shared {
				lo, hi = j*w.nobj/clients, (j+1)*w.nobj/clients
			}
			rng := rand.New(rand.NewSource(seed*1000 + int64(j)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs := c.closedLoop(origin, lo, hi, rng, lim)
				mu.Lock()
				win.load = append(win.load, recs...)
				mu.Unlock()
			}()
		}
	}

	loadDone := make(chan struct{})
	guardDone := make(chan struct{})
	go func() {
		defer close(guardDone)
		for c.traced {
			for _, s := range c.sites {
				if s.Observer().Trace().Recorded() > traceCapacity*85/100 {
					win.stopped = true
					stop.Store(true)
				}
			}
			select {
			case <-loadDone:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	wg.Wait()
	close(loadDone)
	<-guardDone

	win.end = c.now()
	if lim.until > 0 && !win.stopped {
		win.end = lim.until
	}
	win.cpu = cpuTime() - cpu0
	win.snapshot(c, 1)
	for _, r := range win.load {
		if r.ok {
			c.commits++
			if w.viewed(r.obj) {
				c.viewedCommits++
			}
		}
	}
	return win
}

// snapshot records the sites' counters before (i = 0) or after (i = 1)
// the window.
func (win *window) snapshot(c *cluster, i int) {
	win.counters[i] = counterTotals(c)
	for _, l := range c.logs {
		win.wal[i] = append(win.wal[i], l.Stats())
	}
	if c.taps != nil {
		win.tap[i] = tapCounts{c.taps.msgs.Load(), c.taps.calls.Load(), c.taps.sendNs.Load()}
	}
	runtime.ReadMemStats(&win.mem[i])
}

// tapCounts is a reading of the endpoint taps' counters.
type tapCounts struct{ msgs, calls, sendNs int64 }
