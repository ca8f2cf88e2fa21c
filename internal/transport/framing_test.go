package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// writeRawFrame writes one length-prefixed frame carrying payload.
func writeRawFrame(t *testing.T, conn net.Conn, payload []byte) {
	t.Helper()
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	if _, err := conn.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
}

// expectClosed reads from conn until the endpoint closes it; a read that
// times out means the endpoint kept the connection open.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf [256]byte
	for {
		_, err := conn.Read(buf[:])
		if err == nil {
			continue // the endpoint's own hello, if it sent one
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("the endpoint left the connection open")
		}
		return
	}
}

// rawData is a data frame payload of one envelope: sequence 1, sentAt
// time 5, message msg(7).
func rawData(t *testing.T) []byte {
	t.Helper()
	b, err := appendEnvelope([]byte{frameData, 1}, 5, msg(7))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFramingFirstFrameMustBeHello checks that only a hello opens a
// connection: a connection whose first frame is data, an ack or empty is
// closed and delivers nothing, and an empty frame after the hello closes
// it too.
func TestFramingFirstFrameMustBeHello(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames [][]byte
	}{
		{"data", [][]byte{rawData(t)}},
		{"ack", [][]byte{{frameAck, 1, 1}, rawData(t)}},
		{"empty", [][]byte{{}}},
		{"empty-after-hello", [][]byte{{frameHello, 9, 1}, {}, rawData(t)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tcpPair(t, TCPOptions{}, TCPOptions{})
			conn, err := net.Dial("tcp", a.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for _, f := range tc.frames {
				writeRawFrame(t, conn, f)
			}
			expectClosed(t, conn)
			// The raw connection's read loop delivers before it closes, so
			// a message it let through would arrive ahead of b's.
			want := wire.Outcome{TxnVT: vtime.VT{Time: 8, Site: 2}}
			if err := b.Send(1, vtime.VT{Time: 8, Site: 2}, want); err != nil {
				t.Fatal(err)
			}
			ev := recvOne(t, a, 2*time.Second)
			if ev.Kind != EventMessage || ev.From != 2 || ev.Msg != wire.Message(want) {
				t.Fatalf("first event = %+v, want b's message", ev)
			}
		})
	}
}

// TestFramingHelloNamesSender checks that the hello alone names the
// sender: every envelope on the connection is delivered from the hello's
// site, stamped (sentAt time, that site).
func TestFramingHelloNamesSender(t *testing.T) {
	a, _ := tcpPair(t, TCPOptions{}, TCPOptions{})
	conn, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeRawFrame(t, conn, []byte{frameHello, 9, 1})
	writeRawFrame(t, conn, rawData(t))
	ev := recvOne(t, a, 2*time.Second)
	if ev.Kind != EventMessage || ev.From != 9 || ev.SentAt != (vtime.VT{Time: 5, Site: 9}) || ev.Msg != msg(7) {
		t.Fatalf("event = %+v, want msg(7) from site 9 stamped 5@9", ev)
	}
}
