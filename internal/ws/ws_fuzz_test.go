package ws

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"
)

// bufConn is a net.Conn whose writes land in a buffer; only Write is used.
type bufConn struct {
	net.Conn
	out bytes.Buffer
}

func (c *bufConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// FuzzReadFrame decodes arbitrary bytes as one frame in both roles. The
// decoder must not panic, and every frame it accepts must be legal for
// that role under RFC 6455: final, no reserved bits, masked exactly when a
// client sent it, a known opcode, a control payload of at most 125 bytes,
// a payload within the limit. An accepted frame must also survive a round
// trip: the peer encodes the same opcode and payload, and decoding that
// yields them again. The seed corpus holds masked and unmasked frames in
// all three length forms, close, ping and pong frames, over-limit lengths,
// oversized control frames, a continuation, fragments, reserved opcodes
// and truncated headers.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, server := range []bool{true, false} {
			c := &Conn{br: bufio.NewReader(bytes.NewReader(data)), server: server}
			op, payload, err := c.ReadFrame()
			if err != nil && !errors.Is(err, ErrClosed) {
				continue
			}
			if errors.Is(err, ErrClosed) != (op == OpClose) {
				t.Fatalf("server=%v: op %#x with err %v", server, op, err)
			}
			if data[0]&0xF0 != 0x80 {
				t.Fatalf("server=%v: accepted first byte %#x: not final, or reserved bits set", server, data[0])
			}
			if masked := data[1]&0x80 != 0; masked != server {
				t.Fatalf("server=%v: accepted a frame with mask bit %v", server, masked)
			}
			switch op {
			case OpText, OpBinary, OpClose, OpPing, OpPong:
			default:
				t.Fatalf("server=%v: accepted opcode %#x", server, op)
			}
			if op >= OpClose && len(payload) > 125 {
				t.Fatalf("server=%v: accepted a %d-byte control frame", server, len(payload))
			}
			if len(payload) > MaxPayload {
				t.Fatalf("server=%v: accepted a %d-byte payload", server, len(payload))
			}

			peer := &bufConn{}
			w := &Conn{conn: peer, server: !server}
			if err := w.writeFrame(op, payload); err != nil {
				t.Fatal(err)
			}
			r := &Conn{br: bufio.NewReader(&peer.out), server: server}
			op2, payload2, err2 := r.ReadFrame()
			if op2 != op || !bytes.Equal(payload2, payload) || errors.Is(err2, ErrClosed) != errors.Is(err, ErrClosed) {
				t.Fatalf("server=%v: round trip of op %#x (%d bytes) read back op %#x (%d bytes), err %v",
					server, op, len(payload), op2, len(payload2), err2)
			}
		}
	})
}
