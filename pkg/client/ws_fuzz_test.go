package client

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// serverFrame encodes one unmasked (server-to-client) frame in the
// shortest length form.
func serverFrame(op byte, payload []byte) []byte {
	frame := []byte{0x80 | op}
	switch {
	case len(payload) < 126:
		frame = append(frame, byte(len(payload)))
	case len(payload) <= 0xFFFF:
		frame = binary.BigEndian.AppendUint16(append(frame, 126), uint16(len(payload)))
	default:
		frame = binary.BigEndian.AppendUint64(append(frame, 127), uint64(len(payload)))
	}
	return append(frame, payload...)
}

// FuzzClientReadFrame decodes arbitrary bytes as one server frame. The
// decoder must not panic, and every frame it accepts must be legal for a
// client to receive under RFC 6455: unmasked, final, a known data or
// control opcode, a control payload of at most 125 bytes, a payload within
// the limit. An accepted frame must survive a round trip through the
// server encoding. The seed corpus holds frames in all three length forms,
// masked and over-limit frames, close, ping and pong frames, an oversized
// control frame, a continuation, a fragment, a reserved opcode and a
// truncated header.
func FuzzClientReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, err := readWSFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if data[0]&0xF0 != 0x80 || data[1]&0x80 != 0 {
			t.Fatalf("accepted header %#x %#x: not final, extended or masked", data[0], data[1])
		}
		switch op {
		case 0x1, 0x2, 0x8, 0x9, 0xA:
		default:
			t.Fatalf("accepted opcode %#x", op)
		}
		if op >= 0x8 && len(payload) > 125 {
			t.Fatalf("accepted a %d-byte control frame", len(payload))
		}
		if len(payload) > wsMaxPayload {
			t.Fatalf("accepted a %d-byte payload", len(payload))
		}
		op2, payload2, err := readWSFrame(bufio.NewReader(bytes.NewReader(serverFrame(op, payload))))
		if err != nil || op2 != op || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip of op %#x (%d bytes) read back op %#x (%d bytes), err %v",
				op, len(payload), op2, len(payload2), err)
		}
	})
}

// Frames RFC 6455 makes a client fail are refused; legal frames of every
// opcode and length form are read back.
func TestClientReadFrame(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, 0x10000)
	for _, c := range []struct {
		name  string
		frame []byte
		ok    bool
	}{
		{"text", serverFrame(0x1, []byte(`{"kind":"x"}`)), true},
		{"binary", serverFrame(0x2, []byte{1, 2}), true},
		{"126 length", serverFrame(0x1, big[:300]), true},
		{"127 length", serverFrame(0x1, big), true},
		{"close", serverFrame(0x8, []byte{0x03, 0xe8}), true},
		{"ping", serverFrame(0x9, []byte("p")), true},
		{"pong", serverFrame(0xA, nil), true},
		{"continuation", serverFrame(0x0, []byte("x")), false},
		{"fragment", append([]byte{0x01}, serverFrame(0x1, []byte("x"))[1:]...), false},
		{"reserved bit", append([]byte{0xC1}, serverFrame(0x1, []byte("x"))[1:]...), false},
		{"reserved data opcode", serverFrame(0x3, []byte("x")), false},
		{"reserved control opcode", serverFrame(0xB, nil), false},
		{"control over 125 bytes", serverFrame(0x8, big[:126]), false},
		{"ping over 125 bytes", serverFrame(0x9, big[:200]), false},
		{"masked", []byte{0x81, 0x81, 0x37, 0xfa, 0x21, 0x3d, 'x' ^ 0x37}, false},
		{"over limit", append([]byte{0x81, 127}, binary.BigEndian.AppendUint64(nil, wsMaxPayload+1)...), false},
	} {
		_, _, err := readWSFrame(bufio.NewReader(bytes.NewReader(c.frame)))
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want accepted %v", c.name, err, c.ok)
		}
	}
}
