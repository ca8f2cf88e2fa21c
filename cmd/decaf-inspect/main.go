// Command decaf-inspect prints a human-readable summary of a DECAF site
// checkpoint produced by Site.Checkpoint / Site.CheckpointFile (the
// persistence store of paper §5.3): the site's objects, committed values,
// composite structure with its virtual-time element tags, and replication
// graphs.
//
// With -live it inspects a running site instead, fetching and rendering
// the /debug/decaf/state dump of a debug server started with decaf-chat
// -debug-addr or decaf.ServeDebug.
//
// Usage:
//
//	decaf-inspect <checkpoint-file>
//	decaf-inspect -live localhost:8321
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"decaf/internal/engine"
)

func main() {
	live := flag.String("live", "", "inspect a running site: fetch /debug/decaf/state from this debug-server address")
	flag.Parse()

	if *live != "" {
		if err := inspectLive(*live); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: decaf-inspect <checkpoint-file> | decaf-inspect -live <addr>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	out, err := engine.DescribeCheckpoint(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// inspectLive fetches /debug/decaf/state and renders each layer's state
// in the same outline style as the checkpoint description.
func inspectLive(addr string) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(addr + "/debug/decaf/state")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/decaf/state: %s", resp.Status)
	}
	var state map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		return fmt.Errorf("decode state: %w", err)
	}

	fmt.Printf("live site state (%s)\n", addr)
	for _, layer := range sortedKeys(state) {
		fmt.Printf("\n%s:\n", layer)
		render(os.Stdout, state[layer], "  ")
	}
	return nil
}

// render prints a decoded JSON value as an indented outline with sorted
// keys, so successive snapshots diff cleanly.
func render(w *os.File, v any, indent string) {
	switch t := v.(type) {
	case map[string]any:
		if len(t) == 0 {
			fmt.Fprintf(w, "%s(empty)\n", indent)
			return
		}
		for _, k := range sortedKeys(t) {
			switch child := t[k].(type) {
			case map[string]any, []any:
				fmt.Fprintf(w, "%s%s:\n", indent, k)
				render(w, child, indent+"  ")
			default:
				fmt.Fprintf(w, "%s%s: %s\n", indent, k, scalar(child))
			}
		}
	case []any:
		for _, item := range t {
			switch item.(type) {
			case map[string]any, []any:
				fmt.Fprintf(w, "%s-\n", indent)
				render(w, item, indent+"  ")
			default:
				fmt.Fprintf(w, "%s- %s\n", indent, scalar(item))
			}
		}
	default:
		fmt.Fprintf(w, "%s%s\n", indent, scalar(v))
	}
}

func scalar(v any) string {
	switch t := v.(type) {
	case float64:
		if t == float64(int64(t)) {
			return fmt.Sprintf("%d", int64(t))
		}
		return fmt.Sprintf("%g", t)
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%v", t)
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
