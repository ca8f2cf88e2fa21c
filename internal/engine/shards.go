package engine

import (
	"sync"

	"decaf/internal/history"
	"decaf/internal/ids"
	"decaf/internal/wire"
)

// The sharded commit pipeline parallelizes the per-site hot path:
// applying and validating remote Writes whose targets are disjoint
// top-level objects. Under the paper's primary-copy checks (§3.1) such
// transactions are independent — RL scans the target's history, NC its
// reservation table, and the append lands in the same history — so the
// work partitions cleanly by object.
//
// Object IDs are striped into numStripes shards. During a loop batch,
// eligible Writes are STAGED in arrival order; at a flush point the
// loop forks them to the worker pool (one goroutine per occupied
// stripe, the loop itself serving one stripe), PARKS at the join
// barrier, and then FINISHES each task back on the loop in the original
// arrival order. The event loop therefore remains the single
// linearization point: workers run only while the loop is parked, they
// write only state owned by their stripe (the target objects' histories
// and reservations, plus the task's own txnState), and everything
// cross-object — view scheduling, delegation decisions, outcome
// bookkeeping, the VT clock — happens on the loop, in order.
const numStripes = 16

// stripeOf maps an object ID to its shard (fibonacci-style hash so
// sequential per-site Seq values spread across stripes).
func stripeOf(id ids.ObjectID) int {
	h := uint64(id.Site)*0x9e3779b97f4a7c15 + id.Seq*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return int(h % numStripes)
}

// writeTask is one arriving Write (or FastWrite) on its way through the
// shared prologue (openWrite), the apply-and-check step (runWriteTask, on
// a shard worker when staged) and the epilogue on the loop (finishWrite).
type writeTask struct {
	m  wire.Write
	st *txnState
	// status is Committed when the decision was known on arrival (a
	// FastWrite, or late updates of a committed transaction).
	status history.Status
	stripe int
	// applied0 is len(st.applied) at staging: what this message applies
	// is st.applied[applied0:].
	applied0 int
	// blocked counts updates parked on structure not yet received.
	blocked int

	// The primary verdict, when one is owed: written by the worker, read
	// by the loop after the join barrier.
	verdict verdict
}

// shardJob hands one stripe's ordered task run to a worker.
type shardJob struct {
	tasks []*writeTask
	wg    *sync.WaitGroup
}

// startWorkers launches the pool. With workers <= 1 the pipeline is
// serial and no goroutines exist.
func (s *Site) startWorkers() {
	if s.workers <= 1 {
		return
	}
	// Buffered to numStripes so the forking loop never blocks handing
	// out jobs while it runs its own stripe.
	s.shardJobs = make(chan shardJob, numStripes)
	for i := 1; i < s.workers; i++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for job := range s.shardJobs {
				for _, t := range job.tasks {
					s.runWriteTask(t)
				}
				job.wg.Done()
			}
		}()
	}
}

// stopWorkers shuts the pool down; called by the exiting event loop, so
// no further jobs can be in flight.
func (s *Site) stopWorkers() {
	if s.shardJobs != nil {
		close(s.shardJobs)
		s.workerWG.Wait()
	}
}

// stageWrite queues an eligible Write for the batch's fork-join run,
// after the loop-owned prologue (openWrite), so the worker touches only
// stripe-owned state. It returns false when the message must take the
// serial path.
func (s *Site) stageWrite(m wire.Write) bool {
	if s.workers <= 1 || s.inFlush || s.authorizer != nil {
		return false
	}
	stripe, ok := s.writeStripe(m)
	if !ok {
		return false
	}
	if s.stagedVTs[m.TxnVT] {
		// A second message of the same transaction would share its
		// txnState across workers; land the first run before staging.
		s.flushWrites()
	}
	if t := s.openWrite(m, false); t != nil {
		t.stripe = stripe
		s.staged = append(s.staged, t)
		s.stagedVTs[m.TxnVT] = true
	}
	return true
}

// writeStripe decides parallel eligibility and the stripe. Eligible
// writes keep everything the worker touches inside one stripe:
// top-level scalar/association updates (OpSet/OpAssoc with an empty
// path) on known replication roots with no pending indirect updates,
// read checks of the same shape, and all targets on a single stripe.
// Everything else — structural ops, pathed updates, composites, unknown
// objects — takes the serial path, where blocking and drainPending
// semantics apply unchanged.
func (s *Site) writeStripe(m wire.Write) (int, bool) {
	if len(m.Updates) == 0 {
		return 0, false
	}
	stripe := -1
	for _, upd := range m.Updates {
		switch upd.Op.(type) {
		case wire.OpSet, wire.OpAssoc, wire.OpAdd, wire.OpAssocInsert:
		default:
			return 0, false
		}
		if len(upd.Path) != 0 {
			return 0, false
		}
		root, ok := s.objects[upd.Target]
		if !ok || root.parent != nil || root.graph == nil || len(root.pending) > 0 {
			return 0, false
		}
		if root.kind == KindList || root.kind == KindTuple {
			return 0, false
		}
		sp := stripeOf(upd.Target)
		if stripe >= 0 && sp != stripe {
			return 0, false
		}
		stripe = sp
	}
	for _, c := range m.Checks {
		if len(c.Path) != 0 {
			return 0, false
		}
		root, ok := s.objects[c.Target]
		if !ok || root.parent != nil || root.graph == nil {
			return 0, false
		}
		if stripeOf(c.Target) != stripe {
			return 0, false
		}
	}
	return stripe, true
}

// flushWrites is the pipeline's flush point: fork staged tasks across
// the occupied stripes, park at the join barrier, then finish each task
// on the loop in arrival order. Serial-path handlers call it before
// touching any state a staged write could own.
func (s *Site) flushWrites() {
	if len(s.staged) == 0 {
		return
	}
	tasks := s.staged
	s.staged = nil
	clear(s.stagedVTs)
	s.inFlush = true
	defer func() { s.inFlush = false }()

	byStripe := map[int][]*writeTask{}
	var stripes []int
	for _, t := range tasks {
		if _, ok := byStripe[t.stripe]; !ok {
			stripes = append(stripes, t.stripe)
		}
		byStripe[t.stripe] = append(byStripe[t.stripe], t)
	}
	if s.shardJobs == nil || len(stripes) == 1 {
		for _, t := range tasks {
			s.runWriteTask(t)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(stripes) - 1)
		for _, sp := range stripes[1:] {
			s.shardJobs <- shardJob{tasks: byStripe[sp], wg: &wg}
		}
		for _, t := range byStripe[stripes[0]] {
			s.runWriteTask(t) // the loop doubles as the first stripe's worker
		}
		wg.Wait()
	}
	s.stats.ShardedWrites.Add(uint64(len(tasks)))

	for _, t := range tasks {
		s.finishWrite(t)
	}
}
