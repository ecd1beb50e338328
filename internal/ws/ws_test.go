package ws

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// RFC 6455 §1.3 handshake test vector.
func TestAcceptKeyRFCVector(t *testing.T) {
	got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	if want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="; got != want {
		t.Fatalf("AcceptKey = %q, want %q", got, want)
	}
}

func TestHeaderHasToken(t *testing.T) {
	cases := []struct {
		header, token string
		want          bool
	}{
		{"Upgrade", "upgrade", true},
		{"keep-alive, Upgrade", "upgrade", true},
		{"keep-alive,upgrade", "upgrade", true},
		{"keep-alive", "upgrade", false},
		{"", "upgrade", false},
		{"upgraded", "upgrade", false},
	}
	for _, c := range cases {
		if got := headerHasToken(c.header, c.token); got != c.want {
			t.Errorf("headerHasToken(%q, %q) = %v, want %v", c.header, c.token, got, c.want)
		}
	}
}

// pipe builds a server-side and client-side Conn over an in-memory pipe.
func pipe(t *testing.T) (srv, cli *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return &Conn{conn: a, br: bufio.NewReader(a), server: true}, &Conn{conn: b, br: bufio.NewReader(b)}
}

// Frames round-trip in both directions across the three length encodings:
// 7-bit (<126), 16-bit (126..65535), and 64-bit (>65535).
func TestFrameRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 125, 126, 4096, 65535, 65536, 200_000}
	srv, cli := pipe(t)
	for _, n := range sizes {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		for dir, pair := range map[string][2]*Conn{
			"client->server": {cli, srv},
			"server->client": {srv, cli},
		} {
			from, to := pair[0], pair[1]
			errCh := make(chan error, 1)
			go func() { errCh <- from.WriteText(payload) }()
			op, got, err := to.ReadFrame()
			if err != nil {
				t.Fatalf("%s len %d: read: %v", dir, n, err)
			}
			if werr := <-errCh; werr != nil {
				t.Fatalf("%s len %d: write: %v", dir, n, werr)
			}
			if op != OpText || !bytes.Equal(got, payload) {
				t.Fatalf("%s len %d: op %#x, payload mismatch (%d bytes)", dir, n, op, len(got))
			}
		}
	}
}

// Client frames carry a fresh mask key each (RFC 6455 §5.3): two frames
// with the same payload differ on the wire.
func TestClientMaskKeysVary(t *testing.T) {
	out := &bufConn{}
	cli := &Conn{conn: out}
	seen := make(map[[4]byte]bool)
	for i := 0; i < 8; i++ {
		out.out.Reset()
		if err := cli.WriteText([]byte("same")); err != nil {
			t.Fatal(err)
		}
		seen[[4]byte(out.out.Bytes()[2:6])] = true
	}
	if len(seen) < 2 {
		t.Fatalf("8 client frames used %d distinct mask keys", len(seen))
	}
}

// A ping surfaces to the caller (the event loop answers it); WritePong
// mirrors the payload back.
func TestPingPong(t *testing.T) {
	srv, cli := pipe(t)
	go func() { cli.writeFrame(OpPing, []byte("hb")) }() //nolint
	op, payload, err := srv.ReadFrame()
	if err != nil || op != OpPing || string(payload) != "hb" {
		t.Fatalf("ping: op %#x payload %q err %v", op, payload, err)
	}
	go func() { srv.WritePong(payload) }() //nolint
	op, payload, err = cli.ReadFrame()
	if err != nil || op != OpPong || string(payload) != "hb" {
		t.Fatalf("pong: op %#x payload %q err %v", op, payload, err)
	}
}

// The close handshake surfaces as ErrClosed on the reader side.
func TestCloseHandshake(t *testing.T) {
	srv, cli := pipe(t)
	go func() { cli.WriteClose(CloseNormal, "bye") }() //nolint
	_, _, err := srv.ReadFrame()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// EchoClose answers a peer's close with the peer's status code, or with
// CloseNormal when the peer's close carried none.
func TestEchoClose(t *testing.T) {
	for _, c := range []struct {
		name    string
		payload []byte
		want    uint16
	}{
		{"going away", binary.BigEndian.AppendUint16(nil, CloseGoingAway), CloseGoingAway},
		{"with reason", append(binary.BigEndian.AppendUint16(nil, 4000), "bye"...), 4000},
		{"no code", nil, CloseNormal},
	} {
		srv, cli := pipe(t)
		go func() { srv.writeFrame(OpClose, c.payload) }() //nolint
		_, payload, err := cli.ReadFrame()
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: client read %v, want ErrClosed", c.name, err)
		}
		go func() { cli.EchoClose(payload) }() //nolint
		_, echo, err := srv.ReadFrame()
		if !errors.Is(err, ErrClosed) || len(echo) != 2 || binary.BigEndian.Uint16(echo) != c.want {
			t.Fatalf("%s: echo %x (err %v), want code %d", c.name, echo, err, c.want)
		}
	}
}

// Oversized frames are refused before the payload is swallowed.
func TestMaxPayloadEnforced(t *testing.T) {
	srv, cli := pipe(t)
	go func() { cli.WriteText(make([]byte, MaxPayload+1)) }() //nolint
	_, _, err := srv.ReadFrame()
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("oversized frame reported as clean close: %v", err)
	}
}

// serverFrame encodes one unmasked (server-to-client) frame in the
// shortest length form, independently of writeFrame.
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

// frameCase is one frame read in one role: server says whether the
// server reads it, ok whether it must be accepted.
type frameCase struct {
	name   string
	frame  []byte
	server bool
	ok     bool
}

// readFrames reads each case's frame in its role and checks that it is
// accepted or refused as the case says.
func readFrames(t *testing.T, cases []frameCase) {
	t.Helper()
	for _, c := range cases {
		conn := &Conn{br: bufio.NewReader(bytes.NewReader(c.frame)), server: c.server}
		op, _, err := conn.ReadFrame()
		if accepted := err == nil || errors.Is(err, ErrClosed); accepted != c.ok {
			t.Errorf("%s (server=%v): op %#x err %v, want accepted %v", c.name, c.server, op, err, c.ok)
		}
	}
}

// A server refuses fragments and continuations, reserved opcodes, control
// frames over 125 bytes and unmasked frames; a client refuses masked ones.
func TestRejectsIllegalFrames(t *testing.T) {
	key := []byte{0x37, 0xfa, 0x21, 0x3d}
	withKey := func(hdr ...byte) []byte { return append(hdr, key...) }
	readFrames(t, []frameCase{
		{"reserved opcode to server", withKey(0x83, 0x80), true, false},
		{"continuation to server", withKey(0x80, 0x80), true, false},
		{"fragment to server", withKey(0x01, 0x80), true, false},
		{"control over 125 to server", append(withKey(0x89, 0xfe, 0x00, 0x7e), make([]byte, 126)...), true, false},
		{"unmasked to server", []byte{0x81, 0x00}, true, false},
		{"masked to client", withKey(0x81, 0x80), false, false},
	})
}

// Frames RFC 6455 makes a client fail are refused: fragments and
// continuations, reserved bits and opcodes, control frames over 125 bytes,
// masked frames and over-limit lengths. Legal frames of every opcode and
// length form are read back.
func TestReadFrame(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, 0x10000)
	readFrames(t, []frameCase{
		{"text", serverFrame(OpText, []byte(`{"kind":"x"}`)), false, true},
		{"binary", serverFrame(OpBinary, []byte{1, 2}), false, true},
		{"126 length", serverFrame(OpText, big[:300]), false, true},
		{"127 length", serverFrame(OpText, big), false, true},
		{"close", serverFrame(OpClose, []byte{0x03, 0xe8}), false, true},
		{"ping", serverFrame(OpPing, []byte("p")), false, true},
		{"pong", serverFrame(OpPong, nil), false, true},
		{"continuation", serverFrame(0x0, []byte("x")), false, false},
		{"fragment", append([]byte{0x01}, serverFrame(OpText, []byte("x"))[1:]...), false, false},
		{"reserved bit", append([]byte{0xC1}, serverFrame(OpText, []byte("x"))[1:]...), false, false},
		{"reserved data opcode", serverFrame(0x3, []byte("x")), false, false},
		{"reserved control opcode", serverFrame(0xB, nil), false, false},
		{"control over 125 bytes", serverFrame(OpClose, big[:126]), false, false},
		{"ping over 125 bytes", serverFrame(OpPing, big[:200]), false, false},
		{"masked", []byte{0x81, 0x81, 0x37, 0xfa, 0x21, 0x3d, 'x' ^ 0x37}, false, false},
		{"over limit", append([]byte{0x81, 127}, binary.BigEndian.AppendUint64(nil, MaxPayload+1)...), false, false},
	})
}

// A plain GET without upgrade headers is rejected with 400, not hijacked.
func TestUpgradeRejectsPlainGET(t *testing.T) {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/tenants/t/events", nil)
	if _, err := Upgrade(rr, req); err == nil {
		t.Fatal("Upgrade accepted a plain GET")
	}
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rr.Code)
	}
}

// Full handshake over a real TCP stack: Upgrade on an httptest server,
// Dial on the client side, one echo round-trip, then a clean
// CloseHandshake.
func TestUpgradeEndToEnd(t *testing.T) {
	upgraded := make(chan *Conn, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		upgraded <- c
	}))
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cli, err := Dial(ctx, hs.URL+"/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var srv *Conn
	select {
	case srv = <-upgraded:
	case <-time.After(5 * time.Second):
		t.Fatal("server side never upgraded")
	}
	if err := cli.WriteText([]byte("ping over tcp")); err != nil {
		t.Fatal(err)
	}
	op, payload, err := srv.ReadFrame()
	if err != nil || op != OpText || string(payload) != "ping over tcp" {
		t.Fatalf("server read: op %#x payload %q err %v", op, payload, err)
	}
	if err := srv.WriteText(payload); err != nil {
		t.Fatal(err)
	}
	op, payload, err = cli.ReadFrame()
	if err != nil || op != OpText || string(payload) != "ping over tcp" {
		t.Fatalf("client read: op %#x payload %q err %v", op, payload, err)
	}
	// Closing handshake: client initiates, server reads the close and
	// echoes its own, which satisfies the client's bounded wait.
	closed := make(chan error, 1)
	go func() { closed <- cli.CloseHandshake(CloseNormal, "done", 5*time.Second) }()
	if _, _, err := srv.ReadFrame(); !errors.Is(err, ErrClosed) {
		t.Fatalf("server after client close: %v, want ErrClosed", err)
	}
	if err := srv.WriteClose(CloseNormal, "done"); err != nil {
		t.Fatalf("server close reply: %v", err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close handshake: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close handshake never completed")
	}
}
