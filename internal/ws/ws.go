// Package ws is a minimal RFC 6455 WebSocket implementation on the standard
// library alone (the repo deliberately takes no dependencies), in both
// roles: the fleet service upgrades event-stream requests with Upgrade and
// the SDK opens them with Dial. Only what the event stream needs is
// implemented: the HTTP/1.1 opening handshake, text/ping/pong/close frames,
// masking, and the closing handshake. Fragmented messages, extensions and
// reserved opcodes are rejected; binary frames are accepted and left to the
// caller.
package ws

import (
	"bufio"
	"context"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// guid is the protocol-mandated accept-key suffix (RFC 6455 §1.3).
const guid = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// Opcodes.
const (
	OpText   = 0x1
	OpBinary = 0x2
	OpClose  = 0x8
	OpPing   = 0x9
	OpPong   = 0xA
)

// MaxPayload bounds a single frame; event payloads are small, so anything
// larger is a protocol violation rather than a legitimate message.
const MaxPayload = 1 << 20

// Close status codes (RFC 6455 §7.4.1).
const (
	CloseNormal    uint16 = 1000
	CloseGoingAway uint16 = 1001
)

// AcceptKey computes the Sec-WebSocket-Accept value for a client key.
func AcceptKey(key string) string {
	h := sha1.Sum([]byte(key + guid))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Conn is one WebSocket connection after the opening handshake. Writes are
// internally serialized; reads must come from a single goroutine.
type Conn struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	// server marks which side we are: servers send unmasked frames and
	// require masked ones, clients the reverse (RFC 6455 §5.1).
	server bool
}

// Upgrade performs the server-side opening handshake, hijacking the HTTP
// connection. On failure it writes the error response itself and returns.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") ||
		!headerHasToken(r.Header.Get("Connection"), "upgrade") {
		http.Error(w, "websocket upgrade required", http.StatusBadRequest)
		return nil, fmt.Errorf("ws: not a websocket upgrade request")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" || r.Header.Get("Sec-WebSocket-Version") != "13" {
		http.Error(w, "unsupported websocket version", http.StatusBadRequest)
		return nil, fmt.Errorf("ws: unsupported websocket handshake")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket unsupported", http.StatusInternalServerError)
		return nil, fmt.Errorf("ws: response writer cannot hijack")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("ws: hijacking connection: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		conn.Close() //lint:ignore errflowstrict handshake already failed; the close error cannot add anything
		return nil, fmt.Errorf("ws: writing upgrade response: %w", err)
	}
	if err := rw.Flush(); err != nil {
		conn.Close() //lint:ignore errflowstrict handshake already failed; the close error cannot add anything
		return nil, fmt.Errorf("ws: flushing upgrade response: %w", err)
	}
	// The hijacked bufio.Reader may hold bytes the client pipelined after
	// the handshake, but reading PAST its buffer goes through net/http's
	// connReader, which panics once hijacked. Drain exactly the buffered
	// residue, then read the connection directly.
	var src io.Reader = conn
	if n := rw.Reader.Buffered(); n > 0 {
		src = io.MultiReader(io.LimitReader(rw.Reader, int64(n)), conn)
	}
	return &Conn{conn: conn, br: bufio.NewReader(src), server: true}, nil
}

// StatusError is a server's refusal of the opening handshake: it answered
// with Status instead of 101 Switching Protocols.
type StatusError struct{ Status int }

func (e *StatusError) Error() string {
	return fmt.Sprintf("ws: server refused the upgrade with status %d", e.Status)
}

// Dial performs the client-side opening handshake against rawURL, an http
// URL (TLS is not supported), and returns the client role. ctx's deadline,
// if any, bounds the dial and the handshake.
func Dial(ctx context.Context, rawURL string) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("ws: parsing URL: %w", err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("ws: unsupported URL scheme %q", u.Scheme)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ws: dialing: %w", err)
	}
	fail := func(err error) (*Conn, error) {
		conn.Close() //lint:ignore errflowstrict the handshake already failed; the close error cannot add anything
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(deadline); err != nil {
			return fail(fmt.Errorf("ws: setting handshake deadline: %w", err))
		}
	}
	var keyRaw [16]byte
	if _, err := rand.Read(keyRaw[:]); err != nil {
		return fail(fmt.Errorf("ws: generating key: %w", err))
	}
	key := base64.StdEncoding.EncodeToString(keyRaw[:])
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", u.RequestURI(), u.Host, key)
	if _, err := io.WriteString(conn, req); err != nil {
		return fail(fmt.Errorf("ws: writing handshake: %w", err))
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return fail(fmt.Errorf("ws: reading handshake: %w", err))
	}
	resp.Body.Close() //lint:ignore errflowstrict a 101 response carries no body; nothing can be lost
	// RFC 6455 §4.1: the client fails the connection unless the server
	// switched protocols to websocket and proved it read this key.
	switch {
	case resp.StatusCode != http.StatusSwitchingProtocols:
		return fail(&StatusError{Status: resp.StatusCode})
	case !strings.EqualFold(resp.Header.Get("Upgrade"), "websocket") ||
		!headerHasToken(resp.Header.Get("Connection"), "upgrade"):
		return fail(fmt.Errorf("ws: server did not upgrade to websocket"))
	case resp.Header.Get("Sec-WebSocket-Accept") != AcceptKey(key):
		return fail(fmt.Errorf("ws: server answered with a wrong Sec-WebSocket-Accept"))
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return fail(fmt.Errorf("ws: clearing handshake deadline: %w", err))
	}
	return &Conn{conn: conn, br: br}, nil
}

// headerHasToken reports whether a comma-separated header value contains
// the token, case-insensitively ("Connection: keep-alive, Upgrade").
func headerHasToken(header, token string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// writeFrame emits one unfragmented frame. Server frames are unmasked;
// client frames are masked with a fresh key from crypto/rand, as RFC 6455
// §5.3 requires (an unpredictable key defeats proxy cache poisoning).
func (c *Conn) writeFrame(op byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	header := make([]byte, 0, 14)
	header = append(header, 0x80|op)
	maskBit := byte(0)
	if !c.server {
		maskBit = 0x80
	}
	switch {
	case len(payload) < 126:
		header = append(header, maskBit|byte(len(payload)))
	case len(payload) <= 0xFFFF:
		header = append(header, maskBit|126)
		header = binary.BigEndian.AppendUint16(header, uint16(len(payload)))
	default:
		header = append(header, maskBit|127)
		header = binary.BigEndian.AppendUint64(header, uint64(len(payload)))
	}
	body := payload
	if !c.server {
		var key [4]byte
		if _, err := rand.Read(key[:]); err != nil {
			return fmt.Errorf("ws: generating mask key: %w", err)
		}
		header = append(header, key[:]...)
		body = make([]byte, len(payload))
		for i, b := range payload {
			body[i] = b ^ key[i%4]
		}
	}
	if _, err := c.conn.Write(header); err != nil {
		return fmt.Errorf("ws: write: %w", err)
	}
	if len(body) > 0 {
		if _, err := c.conn.Write(body); err != nil {
			return fmt.Errorf("ws: write: %w", err)
		}
	}
	return nil
}

// WriteText sends one text frame.
func (c *Conn) WriteText(p []byte) error { return c.writeFrame(OpText, p) }

// WritePong answers a ping.
func (c *Conn) WritePong(p []byte) error { return c.writeFrame(OpPong, p) }

// WriteClose sends a close frame with the given status code.
func (c *Conn) WriteClose(code uint16, reason string) error {
	payload := make([]byte, 2, 2+len(reason))
	binary.BigEndian.PutUint16(payload, code)
	payload = append(payload, reason...)
	return c.writeFrame(OpClose, payload)
}

// EchoClose answers the close frame that started a peer's closing handshake:
// it sends back the peer's status code (RFC 6455 §5.5.1), or CloseNormal
// when the peer's payload carried none.
func (c *Conn) EchoClose(payload []byte) error {
	code := CloseNormal
	if len(payload) >= 2 {
		code = binary.BigEndian.Uint16(payload)
	}
	return c.WriteClose(code, "")
}

// ErrClosed reports a close frame from the peer.
var ErrClosed = errors.New("ws: connection closed by peer")

// ReadFrame reads the next frame, transparently unmasking. It returns the
// opcode and payload; a close frame returns ErrClosed after the payload.
// Frames RFC 6455 makes the receiver fail are errors: fragments and
// continuations, reserved bits or opcodes, a mask bit set by a server or
// missing from a client, control frames over 125 bytes, and payloads over
// MaxPayload.
func (c *Conn) ReadFrame() (byte, []byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("ws: read: %w", err)
	}
	fin := hdr[0]&0x80 != 0
	op := hdr[0] & 0x0F
	if !fin || hdr[0]&0x70 != 0 || op == 0 {
		return 0, nil, fmt.Errorf("ws: fragmented or extended frames unsupported")
	}
	switch op {
	case OpText, OpBinary, OpClose, OpPing, OpPong:
	default:
		return 0, nil, fmt.Errorf("ws: reserved opcode %#x", op)
	}
	masked := hdr[1]&0x80 != 0
	if masked != c.server {
		if c.server {
			return 0, nil, fmt.Errorf("ws: client frames must be masked")
		}
		return 0, nil, fmt.Errorf("ws: server frames must not be masked")
	}
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, nil, fmt.Errorf("ws: read: %w", err)
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, nil, fmt.Errorf("ws: read: %w", err)
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > MaxPayload {
		return 0, nil, fmt.Errorf("ws: frame of %d bytes exceeds limit", length)
	}
	if op >= OpClose && length > 125 {
		return 0, nil, fmt.Errorf("ws: control frame of %d bytes exceeds 125", length)
	}
	var key [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, key[:]); err != nil {
			return 0, nil, fmt.Errorf("ws: read: %w", err)
		}
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, nil, fmt.Errorf("ws: read: %w", err)
	}
	if masked {
		for i := range payload {
			payload[i] ^= key[i%4]
		}
	}
	if op == OpClose {
		return op, payload, ErrClosed
	}
	return op, payload, nil
}

// CloseHandshake performs the closing handshake from our side: send close,
// wait (bounded) for the peer's close or EOF, then close the transport.
func (c *Conn) CloseHandshake(code uint16, reason string, wait time.Duration) error {
	werr := c.WriteClose(code, reason)
	if wait > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(wait)); err == nil {
			for {
				if _, _, err := c.ReadFrame(); err != nil {
					break // peer's close frame, EOF, or deadline — all end the wait
				}
			}
		}
	}
	cerr := c.conn.Close()
	return errors.Join(werr, cerr)
}

// Close tears the connection down without a handshake.
func (c *Conn) Close() error { return c.conn.Close() }
