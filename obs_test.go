package decaf_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"decaf"
)

// TestDebugServerSmoke drives a small two-site session with an Observer
// attached and checks the three debug endpoints end to end: Prometheus
// metrics carry the transaction and view counters, /debug/decaf/state
// reports a running engine, and /debug/decaf/trace shows a committed
// VT-stamped span. This is the same wiring decaf-chat's -debug-addr flag
// uses.
func TestDebugServerSmoke(t *testing.T) {
	o := decaf.NewObserver()
	srv, err := decaf.ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	net := decaf.NewSimNetwork(decaf.SimConfig{})
	defer net.Close()
	s1, err := decaf.DialOptions(net, 1, decaf.Options{Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := decaf.Dial(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	o1, _ := s1.NewInt("counter")
	o2, _ := s2.NewInt("counter")
	if res := s2.JoinObject(o2, 1, o1.Ref().ID()).Wait(); !res.Committed {
		t.Fatalf("join: %+v", res)
	}

	notified := make(chan struct{}, 16)
	view := decaf.ViewFunc(func(s *decaf.Snapshot) {
		select {
		case notified <- struct{}{}:
		default:
		}
	})
	if _, err := s1.Attach(view, decaf.Pessimistic, o1); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		res := s1.ExecuteFunc(func(tx *decaf.Tx) error {
			o1.Set(tx, o1.Value(tx)+1)
			return nil
		}).Wait()
		if !res.Committed {
			t.Fatalf("txn %d: %+v", i, res)
		}
	}
	select {
	case <-notified:
	case <-time.After(3 * time.Second):
		t.Fatal("pessimistic view never notified")
	}

	base := fmt.Sprintf("http://%s", srv.Addr())

	metrics := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"decaf_txn_submitted_total",
		"decaf_txn_committed_total",
		"decaf_txn_commit_latency_seconds_bucket",
		"decaf_view_pess_notifications_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if v, ok := s1.Metrics().Value("decaf_txn_committed_total"); !ok || v < 3 {
		t.Errorf("committed counter = %v (ok=%v), want >= 3", v, ok)
	}

	var state map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/decaf/state")), &state); err != nil {
		t.Fatalf("decode state: %v", err)
	}
	eng, ok := state["engine"].(map[string]any)
	if !ok {
		t.Fatalf("state has no engine section: %v", state)
	}
	if running, _ := eng["running"].(bool); !running {
		t.Errorf("engine state reports running=%v", eng["running"])
	}

	var trace struct {
		Enabled bool `json:"enabled"`
		Spans   []struct {
			Outcome string `json:"outcome"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/decaf/trace")), &trace); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if !trace.Enabled {
		t.Error("trace reports disabled")
	}
	committed := 0
	for _, sp := range trace.Spans {
		if sp.Outcome == "committed" {
			committed++
		}
	}
	if committed < 3 {
		t.Errorf("trace shows %d committed spans, want >= 3", committed)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(body)
}
