package engine

import (
	"testing"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// TestStepCallbackReentryKeepsOrder drives a site that was never
// started. A pessimistic view callback submits one more write and then
// reads synchronously, which steps the site again from inside the
// callback; that inner step commits the write. Its notification must
// still wait for the ones queued before it.
func TestStepCallbackReentryKeepsOrder(t *testing.T) {
	net := transport.NewNetwork(transport.Config{})
	defer net.Close()
	ep, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(ep, Options{})
	defer s.Stop()
	ref, err := s.CreateObject(KindInt, "x", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	write := func(v int64) *Txn {
		return &Txn{Execute: func(tx *Tx) error { return tx.Write(ref, v) }}
	}
	var seen []vtime.VT
	reentered := false
	if _, err := s.AttachView([]ObjRef{ref}, Pessimistic, ViewFuncs{Update: func(d SnapshotData) {
		seen = append(seen, d.TS)
		if len(seen) == 2 && !reentered {
			reentered = true
			s.Submit(write(99))
			if _, err := s.ReadCommitted(ref); err != nil {
				t.Error(err)
			}
		}
	}}); err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 3; v++ {
		s.Submit(write(v))
	}
	for s.Step() {
	}
	if len(seen) != 5 {
		t.Fatalf("heard %d notifications, want the attach and 4 commits", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if !seen[i-1].Less(seen[i]) {
			t.Fatalf("pessimistic view went from %s to %s", seen[i-1], seen[i])
		}
	}
}
