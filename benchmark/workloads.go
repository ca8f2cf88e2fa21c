package main

import "time"

// opKind is what one load transaction does to its object.
type opKind int

const (
	opRMW opKind = iota // read the Int, write value+1 (guessed, confirmed at the primary)
	opAdd               // commutative Add(1) (fast path, no primary round trip)
	opSet               // blind write (guessed, nothing read)
)

// walMode says whether the sites log, and whether the log is fsynced.
type walMode int

const (
	walOff    walMode = iota
	walAppend         // wal.SyncNever: every record is written, none is fsynced
	walFsync          // wal.SyncBatch: one fsync per event-loop batch
)

// workload is one fixed configuration of cluster and load. All have 3
// sites and Int objects replicated at every site.
type workload struct {
	name string
	why  string

	tcp    bool          // three TCP loopback endpoints instead of the in-memory network
	delay  time.Duration // injected one-way delay t of the in-memory network
	wal    walMode       // write-ahead log on every site
	mix    []opKind      // each transaction is one of these, chosen uniformly
	nobj   int
	shared bool // every client draws from all objects; else disjoint partitions
	spread bool // primaries round-robin over the sites; else all at site 1

	// Every viewEvery-th object carries one pessimistic and one
	// optimistic view, at site 1 or (viewsEverywhere) at every site.
	// View latency is measured on the transactions that touch them. The
	// workloads that bypass views still watch one object in sixteen (6%
	// of their transactions), so that every workload reports what a
	// watcher at another site sees while its load runs.
	viewEvery       int
	viewsEverywhere bool

	// origins are the site IDs that originate load. Closed loop:
	// clientsPerOrigin client goroutines at each. Open loop (rate > 0):
	// rate txn/s in total, each transaction at a seeded-random origin.
	origins []int
	rate    float64

	// warmup is the number of load transactions run (and waited for)
	// at the end of set-up; it is part of setup_s.
	warmup int
}

func (w *workload) viewed(obj int) bool { return obj%w.viewEvery == 0 }

func (w *workload) has(kind opKind) bool {
	for _, k := range w.mix {
		if k == kind {
			return true
		}
	}
	return false
}

var workloads = []*workload{
	{
		name: "rmw-mem",
		why:  "control: zero-delay in-memory network, disjoint read-modify-writes, so engine+history guess/confirm does nearly all the work; wire, TCP, wal and the fast path are bypassed, views nearly",
		mix:  []opKind{opRMW}, nobj: 64, viewEvery: 16, origins: []int{2, 3}, warmup: 4000,
	},
	{
		name: "rmw-tcp",
		why:  "rmw-mem over three TCP loopback endpoints: the difference to rmw-mem is the cost of wire + transport",
		tcp:  true,
		mix:  []opKind{opRMW}, nobj: 64, viewEvery: 16, origins: []int{2, 3}, warmup: 4000,
	},
	{
		name: "rmw-wal",
		why:  "rmw-mem with a write-ahead log on every site, appended but not fsynced (SyncNever): the difference to rmw-mem is the cost of logging without the sandbox disk's fsync latency",
		wal:  walAppend,
		mix:  []opKind{opRMW}, nobj: 64, viewEvery: 16, origins: []int{2, 3}, warmup: 4000,
	},
	{
		name: "adds-mem",
		why:  "commutative Adds on 16 objects shared by all clients: the same engine/history layers through the fast path instead of guess/confirm",
		mix:  []opKind{opAdd}, nobj: 16, shared: true, viewEvery: 16, origins: []int{2, 3}, warmup: 4000,
	},
	{
		name: "views-mem",
		why:  "rmw-mem on 16 objects with a pessimistic and an optimistic view on all of them at the primary site: view proxy, snapshot and notifier do most of the added work",
		mix:  []opKind{opRMW}, nobj: 16, viewEvery: 1, origins: []int{2, 3}, warmup: 4000,
	},
	{
		name:  "collab-wan",
		why:   "the paper's section 5 experiment: open loop at 200 txn/s, one-way delay t = 5 ms, shared objects, views at every site; latency is protocol round trips, not CPU",
		delay: 5 * time.Millisecond,
		mix:   []opKind{opRMW, opSet}, nobj: 16, shared: true, spread: true, viewEvery: 1, viewsEverywhere: true,
		origins: []int{1, 2, 3}, rate: 200, warmup: 60,
	},
}

// keptOut are configurations that do not repeat, or do not complete, on
// the reference box. They run by name only, are not part of "all" or of
// BENCHMARK.json, and exist so that a bugfix issue can cite a command
// line; README.md ("kept out on purpose") has what each shows.
var keptOut = []*workload{
	{
		name: "x-wal-fsync",
		why:  "rmw-wal with one fsync per event-loop batch (SyncBatch): measures the sandbox's disk",
		wal:  walFsync,
		mix:  []opKind{opRMW}, nobj: 64, viewEvery: 16, origins: []int{2, 3}, warmup: 1000,
	},
	{
		name: "x-adds-views",
		why:  "commutative Adds mixed with read-modify-writes on shared objects that all carry views",
		mix:  []opKind{opAdd, opRMW}, nobj: 16, shared: true, viewEvery: 1, origins: []int{1, 2, 3}, warmup: 600,
	},
	{
		name: "x-hot-object",
		why:  "every client read-modify-writes one object at zero delay",
		mix:  []opKind{opRMW}, nobj: 1, shared: true, viewEvery: 1, origins: []int{2, 3}, warmup: 400,
	},
	{
		name: "x-views-all",
		why:  "views-mem with the view pair at every site",
		mix:  []opKind{opRMW}, nobj: 16, viewEvery: 1, viewsEverywhere: true, origins: []int{2, 3}, warmup: 4000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range append(append([]*workload(nil), workloads...), keptOut...) {
		if w.name == name {
			return w
		}
	}
	return nil
}
