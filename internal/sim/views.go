package sim

import (
	"fmt"
	"sync"

	"decaf/internal/detorder"
	"decaf/internal/engine"
	"decaf/internal/vtime"
)

// viewLog records the notifications of one site's view pair. The
// callbacks run on the site's notifier goroutine; the harness reads the
// log only at quiescence, when every notifier is idle.
type viewLog struct {
	mu   sync.Mutex
	pess []engine.SnapshotData
	opt  []engine.SnapshotData
	// optCommitted reports whether a commit notification arrived after
	// the newest optimistic update, i.e. whether that snapshot was
	// commit-notified (a commit for a superseded snapshot is never
	// delivered).
	optCommitted bool
}

func (l *viewLog) funcs() (pess, opt engine.ViewFuncs) {
	pess = engine.ViewFuncs{Update: func(d engine.SnapshotData) {
		l.mu.Lock()
		l.pess = append(l.pess, d)
		l.mu.Unlock()
	}}
	opt = engine.ViewFuncs{
		Update: func(d engine.SnapshotData) {
			l.mu.Lock()
			l.opt = append(l.opt, d)
			l.optCommitted = false
			l.mu.Unlock()
		},
		Commit: func() {
			l.mu.Lock()
			l.optCommitted = true
			l.mu.Unlock()
		},
	}
	return pess, opt
}

// sharedObjects names the objects set-up replicates at every site.
var sharedObjects = []string{"reg", "ctr", "lst"}

// attachViews drains set-up traffic (so no set-up commit can reach a
// view after it attached), then attaches a pessimistic and an
// optimistic view over all shared objects at every site, in site order.
// It settles after each site: an attach sends its CONFIRM-READs at the
// end of the site's batch, and two sites sending at once would schedule
// their messages in whichever order their goroutines ran.
func (w *world) attachViews(refs map[string][]engine.ObjRef) error {
	if err := w.drain(); err != nil {
		return err
	}
	w.views = map[vtime.SiteID]*viewLog{}
	for i := 1; i <= w.profile.Sites; i++ {
		id := vtime.SiteID(i)
		var objs []engine.ObjRef
		for _, name := range sharedObjects {
			objs = append(objs, refs[name][i])
		}
		l := &viewLog{}
		pess, opt := l.funcs()
		if _, err := w.sites[id].AttachView(objs, engine.Pessimistic, pess); err != nil {
			return fmt.Errorf("sim: attach pessimistic view at S%d: %w", i, err)
		}
		if _, err := w.sites[id].AttachView(objs, engine.Optimistic, opt); err != nil {
			return fmt.Errorf("sim: attach optimistic view at S%d: %w", i, err)
		}
		w.views[id] = l
		if err := w.settle(); err != nil {
			return err
		}
	}
	w.tracef("VIEWS-ATTACHED sites=%d", w.profile.Sites)
	return nil
}

// checkViews asserts the paper's §4 view contracts at every surviving
// site after quiescence:
//   - the pessimistic view's snapshot times strictly increase;
//   - it heard exactly one notification per committed transaction VT
//     above its attach watermark (every workload transaction writes a
//     watched object), and none for any other VT;
//   - its last snapshot, and the optimistic view's, equal the site's
//     committed state;
//   - that last optimistic snapshot was commit-notified.
func (w *world) checkViews(refs map[string][]engine.ObjRef) []string {
	var committed []*pendingTxn
	for _, p := range w.pending {
		if p.poll() && p.res.Committed {
			committed = append(committed, p)
		}
	}
	var problems []string
	for i := 1; i <= w.profile.Sites; i++ {
		id := vtime.SiteID(i)
		if !w.alive(id) {
			continue
		}
		l := w.views[id]
		l.mu.Lock()
		pess, opt, optCommitted := l.pess, l.opt, l.optCommitted
		l.mu.Unlock()
		if len(pess) == 0 || len(opt) == 0 {
			problems = append(problems, fmt.Sprintf("S%d: views heard %d pessimistic, %d optimistic notifications; the attach notification is missing", i, len(pess), len(opt)))
			continue
		}

		watermark := pess[0].TS
		heard := map[vtime.VT]int{}
		for k, d := range pess[1:] {
			if !pess[k].TS.Less(d.TS) {
				problems = append(problems, fmt.Sprintf("S%d: pessimistic view went from %s to %s", i, pess[k].TS, d.TS))
			}
			heard[d.TS]++
		}
		for _, p := range committed {
			vt := p.res.VT
			if !watermark.Less(vt) {
				continue
			}
			if n := heard[vt]; n != 1 {
				problems = append(problems, fmt.Sprintf("S%d: pessimistic view heard committed %s (%s at S%d) %d times", i, vt, p.kind, p.site, n))
			}
			delete(heard, vt)
		}
		for _, vt := range detorder.SortedFunc(heard, vtime.VT.Less) {
			problems = append(problems, fmt.Sprintf("S%d: pessimistic view heard %s, which no transaction committed", i, vt))
		}

		lastPess, lastOpt := pess[len(pess)-1], opt[len(opt)-1]
		for _, name := range sharedObjects {
			ref := refs[name][i]
			cm, err := w.sites[id].ReadCommitted(ref)
			if err != nil {
				problems = append(problems, fmt.Sprintf("S%d: read committed %s: %v", i, name, err))
				continue
			}
			want := fmt.Sprintf("%#v", cm)
			if got := fmt.Sprintf("%#v", lastPess.Values[ref.ID()]); got != want {
				problems = append(problems, fmt.Sprintf("S%d: last pessimistic snapshot (%s) shows %s = %s, committed %s", i, lastPess.TS, name, got, want))
			}
			if got := fmt.Sprintf("%#v", lastOpt.Values[ref.ID()]); got != want {
				problems = append(problems, fmt.Sprintf("S%d: last optimistic snapshot (%s) shows %s = %s, committed %s", i, lastOpt.TS, name, got, want))
			}
		}
		if !optCommitted {
			problems = append(problems, fmt.Sprintf("S%d: last optimistic snapshot (%s) was never commit-notified", i, lastOpt.TS))
		}
	}
	return problems
}
