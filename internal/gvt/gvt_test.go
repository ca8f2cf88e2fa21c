package gvt

import (
	"sync"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

func group(t *testing.T, n int, latency time.Duration) []*Site {
	t.Helper()
	net := transport.NewNetwork(transport.Config{Latency: latency})
	ring := make([]vtime.SiteID, n)
	for i := range ring {
		ring[i] = vtime.SiteID(i + 1)
	}
	sites := make([]*Site, n)
	for i := range sites {
		ep, err := net.Endpoint(ring[i])
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = NewSite(ep, ring)
	}
	for _, s := range sites {
		s.Start()
	}
	t.Cleanup(func() {
		for _, s := range sites {
			s.Stop()
		}
		net.Close()
	})
	return sites
}

func TestGVTWriteCommits(t *testing.T) {
	sites := group(t, 3, time.Millisecond)
	done := sites[0].Write("x", int64(7))
	select {
	case <-done.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("write never committed")
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, s := range sites {
			if s.ReadCommitted("x") != int64(7) {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("replicas did not converge")
}

func TestGVTCommitOrderMonotonic(t *testing.T) {
	sites := group(t, 3, time.Millisecond)

	var mu sync.Mutex
	var commits []vtime.VT
	sites[2].OnCommit(func(name string, value any, vt vtime.VT) {
		mu.Lock()
		defer mu.Unlock()
		commits = append(commits, vt)
	})

	var pendings []*Pending
	for k := 0; k < 5; k++ {
		pendings = append(pendings, sites[0].Write("a", int64(k)))
		pendings = append(pendings, sites[1].Write("b", int64(k)))
	}
	for _, p := range pendings {
		select {
		case <-p.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("write never committed")
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(commits)
		mu.Unlock()
		if n >= 10 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(commits) < 10 {
		t.Fatalf("observer saw %d commits, want 10", len(commits))
	}
	for i := 1; i < len(commits); i++ {
		if !commits[i-1].Less(commits[i]) {
			t.Fatalf("commit order not monotonic: %v then %v", commits[i-1], commits[i])
		}
	}
}

func TestGVTSingleMember(t *testing.T) {
	sites := group(t, 1, 0)
	select {
	case <-sites[0].Write("x", int64(1)).Done():
	case <-time.After(time.Second):
		t.Fatal("single-member write never committed")
	}
	if sites[0].ReadCommitted("x") != int64(1) {
		t.Fatal("value not committed")
	}
}
