package wire

import (
	"bytes"
	"encoding/gob"
	"testing"

	"decaf/internal/ids"
	"decaf/internal/vtime"
)

// benchMessages is a representative protocol mix: the WRITE/CONFIRM/COMMIT
// triple that dominates steady-state traffic, plus a view confirmation.
func benchMessages() []Message {
	vt := vtime.VT{Time: 12345, Site: 2}
	target := ids.ObjectID{Site: 3, Seq: 7}
	return []Message{
		Write{
			TxnVT:  vt,
			Origin: 2,
			Updates: []Update{
				{Target: target, ReadVT: vt, GraphVT: vtime.VT{Time: 3, Site: 1}, Op: OpSet{Value: int64(42)}},
				{Target: ids.ObjectID{Site: 1, Seq: 9}, ReadVT: vt, Op: OpSet{Value: "hello world"}},
			},
			Checks:       []ReadCheck{{Target: target, ReadVT: vt, GraphVT: vt}},
			NeedsConfirm: true,
		},
		Confirm{TxnVT: vt, OK: true},
		Outcome{TxnVT: vt, Committed: true},
		ConfirmRead{TxnVT: vt, ReqID: 77, Checks: []ReadCheck{{Target: target, ReadVT: vt}}},
	}
}

func BenchmarkEncodeBinary(b *testing.B) {
	msgs := benchMessages()
	var buf []byte
	var bytesOut int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		for _, m := range msgs {
			if buf, err = AppendMessage(buf, m); err != nil {
				b.Fatal(err)
			}
		}
		bytesOut += int64(len(buf))
	}
	b.ReportMetric(float64(bytesOut)/float64(b.N)/float64(len(msgs)), "wire-bytes/msg")
}

func BenchmarkEncodeGob(b *testing.B) {
	msgs := benchMessages()
	// One long-lived encoder per connection is how the transport used
	// gob, so type descriptors amortize — the fairest baseline.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	wrap := struct{ M Message }{}
	var bytesOut int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := buf.Len()
		for _, m := range msgs {
			wrap.M = m
			if err := enc.Encode(&wrap); err != nil {
				b.Fatal(err)
			}
		}
		bytesOut += int64(buf.Len() - start)
		if buf.Len() > 1<<24 {
			buf.Reset()
			enc = gob.NewEncoder(&buf)
		}
	}
	b.ReportMetric(float64(bytesOut)/float64(b.N)/float64(len(msgs)), "wire-bytes/msg")
}

func BenchmarkDecodeBinary(b *testing.B) {
	msgs := benchMessages()
	var buf []byte
	for _, m := range msgs {
		var err error
		if buf, err = AppendMessage(buf, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rest := buf
		for len(rest) > 0 {
			_, n, err := DecodeMessage(rest)
			if err != nil {
				b.Fatal(err)
			}
			rest = rest[n:]
		}
	}
}

func BenchmarkDecodeGob(b *testing.B) {
	msgs := benchMessages()
	// Pre-encode one long stream so the decoder, like a connection's,
	// sees type descriptors once.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	const rounds = 1024
	for i := 0; i < rounds; i++ {
		for _, m := range msgs {
			wrap := struct{ M Message }{M: m}
			if err := enc.Encode(&wrap); err != nil {
				b.Fatal(err)
			}
		}
	}
	stream := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	dec := gob.NewDecoder(bytes.NewReader(stream))
	decoded := 0
	for i := 0; i < b.N; i++ {
		var wrap struct{ M Message }
		if err := dec.Decode(&wrap); err != nil {
			b.Fatal(err)
		}
		decoded++
		if decoded == rounds*len(msgs) {
			dec = gob.NewDecoder(bytes.NewReader(stream))
			decoded = 0
		}
	}
}
