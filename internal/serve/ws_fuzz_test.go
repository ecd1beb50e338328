package serve

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
// that role under RFC 6455: masked exactly when a client sent it, a known
// opcode, a control payload of at most 125 bytes, a payload within the
// limit. An accepted frame must also survive a round trip: the peer
// encodes the same opcode and payload, and decoding that yields them again.
// The seed corpus holds masked and unmasked frames in all three length
// forms, close, ping and pong frames, over-limit lengths, an oversized
// control frame, a fragment, a reserved opcode and a truncated header.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, server := range []bool{true, false} {
			c := &WSConn{br: bufio.NewReader(bytes.NewReader(data)), server: server}
			op, payload, err := c.ReadFrame()
			if err != nil && !errors.Is(err, errWSClosed) {
				continue
			}
			if errors.Is(err, errWSClosed) != (op == wsOpClose) {
				t.Fatalf("server=%v: op %#x with err %v", server, op, err)
			}
			if masked := data[1]&0x80 != 0; masked != server {
				t.Fatalf("server=%v: accepted a frame with mask bit %v", server, masked)
			}
			switch op {
			case wsOpText, wsOpBinary, wsOpClose, wsOpPing, wsOpPong:
			default:
				t.Fatalf("server=%v: accepted opcode %#x", server, op)
			}
			if op >= wsOpClose && len(payload) > 125 {
				t.Fatalf("server=%v: accepted a %d-byte control frame", server, len(payload))
			}
			if len(payload) > wsMaxPayload {
				t.Fatalf("server=%v: accepted a %d-byte payload", server, len(payload))
			}

			peer := &bufConn{}
			w := &WSConn{conn: peer, server: !server}
			if err := w.writeFrame(op, payload); err != nil {
				t.Fatal(err)
			}
			r := &WSConn{br: bufio.NewReader(&peer.out), server: server}
			op2, payload2, err2 := r.ReadFrame()
			if op2 != op || !bytes.Equal(payload2, payload) || errors.Is(err2, errWSClosed) != errors.Is(err, errWSClosed) {
				t.Fatalf("server=%v: round trip of op %#x (%d bytes) read back op %#x (%d bytes), err %v",
					server, op, len(payload), op2, len(payload2), err2)
			}
		}
	})
}

// Frames RFC 6455 makes the receiver fail are refused: a reserved opcode, a
// fragment, a control frame over 125 bytes, and a frame masked the wrong
// way for the reading side.
func TestWSRejectsIllegalFrames(t *testing.T) {
	key := []byte{0x37, 0xfa, 0x21, 0x3d}
	withKey := func(hdr ...byte) []byte { return append(hdr, key...) }
	cases := []struct {
		name   string
		frame  []byte
		server bool
	}{
		{"reserved opcode", withKey(0x83, 0x80), true},
		{"continuation", withKey(0x80, 0x80), true},
		{"fragment", withKey(0x01, 0x80), true},
		{"control over 125", append(withKey(0x89, 0xfe, 0x00, 0x7e), make([]byte, 126)...), true},
		{"unmasked to server", []byte{0x81, 0x00}, true},
		{"masked to client", withKey(0x81, 0x80), false},
	}
	for _, c := range cases {
		conn := &WSConn{br: bufio.NewReader(bytes.NewReader(c.frame)), server: c.server}
		if op, _, err := conn.ReadFrame(); err == nil || errors.Is(err, errWSClosed) {
			t.Errorf("%s: accepted as op %#x (err %v)", c.name, op, err)
		}
	}
}
