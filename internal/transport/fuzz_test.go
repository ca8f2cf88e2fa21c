package transport

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"decaf/internal/ids"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// writeCorpus regenerates the committed seed corpus:
//
//	go test ./internal/transport -run TestWriteSeedCorpus -writecorpus
var writeCorpus = flag.Bool("writecorpus", false, "regenerate seed corpora under testdata/fuzz")

// seedEnvelopes returns representative encoded envelopes.
func seedEnvelopes(fatalf func(format string, args ...any)) [][]byte {
	vt := func(t, s uint64) vtime.VT { return vtime.VT{Time: t, Site: vtime.SiteID(s)} }
	msgs := []wire.Message{
		wire.Outcome{TxnVT: vt(4, 1), Committed: true},
		wire.Confirm{TxnVT: vt(4, 1), ReqID: 7, OK: false, Transient: true, Reason: "pending"},
		wire.Write{
			TxnVT: vt(3, 1), Origin: 1,
			Updates: []wire.Update{{
				Target: ids.ObjectID{Site: 2, Seq: 5},
				ReadVT: vt(1, 1), GraphVT: vt(2, 2),
				Op: wire.OpSet{Value: int64(42)},
			}},
			NeedsConfirm: true,
		},
		wire.CommitQuery{TxnVT: vt(9, 3)},
	}
	var out [][]byte
	for i, m := range msgs {
		b, err := appendEnvelope(nil, uint64(10+i), m)
		if err != nil {
			fatalf("encode seed envelope %d (%s): %v", i, m.Kind(), err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDecodeEnvelope checks that decodeEnvelope never panics on
// arbitrary frame bytes, reports a sane consumed length, and that
// accepted envelopes survive an encode/decode round trip.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, b := range seedEnvelopes(f.Fatalf) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		sentAt, msg, used, err := decodeEnvelope(data)
		if err != nil {
			return
		}
		if used < 1 || used > len(data) {
			t.Fatalf("decodeEnvelope used %d of %d bytes", used, len(data))
		}
		re, err := appendEnvelope(nil, sentAt, msg)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		sentAt2, msg2, used2, err := decodeEnvelope(re)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if used2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", used2, len(re))
		}
		if sentAt2 != sentAt {
			t.Fatalf("round trip changed the header: %d -> %d", sentAt, sentAt2)
		}
		// NaN payloads make DeepEqual lie; byte-identical re-encodings
		// also pass.
		if !reflect.DeepEqual(msg, msg2) {
			re2, err := appendEnvelope(nil, sentAt2, msg2)
			if err != nil || !bytes.Equal(re, re2) {
				t.Fatalf("round trip changed the message:\n first: %#v\nsecond: %#v", msg, msg2)
			}
		}
	})
}

// TestWriteSeedCorpus writes the seed envelopes as a committed corpus in
// the format `go test fuzz v1`. Run with -writecorpus after changing the
// envelope layout or the seed set.
func TestWriteSeedCorpus(t *testing.T) {
	if !*writeCorpus {
		t.Skip("run with -writecorpus to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeEnvelope")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, b := range seedEnvelopes(t.Fatalf) {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
