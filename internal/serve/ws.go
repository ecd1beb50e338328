// Minimal RFC 6455 WebSocket support, server side, on the standard library
// alone (the repo deliberately takes no dependencies). Only what the event
// stream needs is implemented: the HTTP/1.1 upgrade handshake, text/ping/
// pong/close frames, client-to-server masking, and the closing handshake.
// Fragmented messages, extensions and reserved opcodes are rejected; binary
// frames are accepted and left to the caller.
package serve

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// wsGUID is the protocol-mandated accept-key suffix (RFC 6455 §1.3).
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// WebSocket opcodes.
const (
	wsOpText   = 0x1
	wsOpBinary = 0x2
	wsOpClose  = 0x8
	wsOpPing   = 0x9
	wsOpPong   = 0xA
)

// wsMaxPayload bounds a single frame; event payloads are small, so anything
// larger is a protocol violation rather than a legitimate message.
const wsMaxPayload = 1 << 20

// Close status codes (RFC 6455 §7.4.1) and the closing-handshake grace
// period the server allows the peer's close frame.
const (
	wsCloseNormal    uint16 = 1000
	wsCloseGoingAway uint16 = 1001
)

const wsCloseWait = 2 * time.Second

// wsAcceptKey computes the Sec-WebSocket-Accept value for a client key.
func wsAcceptKey(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// WSConn is one upgraded WebSocket connection. Writes are internally
// serialized; reads must come from a single goroutine.
type WSConn struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	// server marks which side we are: servers send unmasked frames and
	// require masked ones, clients the reverse (RFC 6455 §5.1).
	server bool
}

// wsUpgrade performs the server-side opening handshake, hijacking the HTTP
// connection. On failure it writes the error response itself and returns.
func wsUpgrade(w http.ResponseWriter, r *http.Request) (*WSConn, error) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") ||
		!headerHasToken(r.Header.Get("Connection"), "upgrade") {
		http.Error(w, "websocket upgrade required", http.StatusBadRequest)
		return nil, fmt.Errorf("serve: not a websocket upgrade request")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" || r.Header.Get("Sec-WebSocket-Version") != "13" {
		http.Error(w, "unsupported websocket version", http.StatusBadRequest)
		return nil, fmt.Errorf("serve: unsupported websocket handshake")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket unsupported", http.StatusInternalServerError)
		return nil, fmt.Errorf("serve: response writer cannot hijack")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("serve: hijacking connection: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAcceptKey(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		conn.Close() //lint:ignore errflowstrict handshake already failed; the close error cannot add anything
		return nil, fmt.Errorf("serve: writing upgrade response: %w", err)
	}
	if err := rw.Flush(); err != nil {
		conn.Close() //lint:ignore errflowstrict handshake already failed; the close error cannot add anything
		return nil, fmt.Errorf("serve: flushing upgrade response: %w", err)
	}
	// The hijacked bufio.Reader may hold bytes the client pipelined after
	// the handshake, but reading PAST its buffer goes through net/http's
	// connReader, which panics once hijacked. Drain exactly the buffered
	// residue, then read the connection directly.
	var src io.Reader = conn
	if n := rw.Reader.Buffered(); n > 0 {
		src = io.MultiReader(io.LimitReader(rw.Reader, int64(n)), conn)
	}
	return &WSConn{conn: conn, br: bufio.NewReader(src), server: true}, nil
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

// NewWSClientConn wraps an already-handshaken connection as the client
// side (frames are masked on write, unmasked expected on read). The SDK
// performs its own HTTP handshake and hands the connection over.
func NewWSClientConn(conn net.Conn, br *bufio.Reader) *WSConn {
	if br == nil {
		br = bufio.NewReader(conn)
	}
	return &WSConn{conn: conn, br: br}
}

// writeFrame emits one unfragmented frame. Server frames are unmasked;
// client frames are masked with a key drawn from the payload bytes'
// addresses — predictability is fine here, masking exists to defeat proxy
// cache poisoning, not for secrecy.
func (c *WSConn) writeFrame(op byte, payload []byte) error {
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
		// A fixed key is protocol-legal; see above.
		key = [4]byte{0x37, 0xfa, 0x21, 0x3d}
		header = append(header, key[:]...)
		body = make([]byte, len(payload))
		for i, b := range payload {
			body[i] = b ^ key[i%4]
		}
	}
	if _, err := c.conn.Write(header); err != nil {
		return fmt.Errorf("serve: websocket write: %w", err)
	}
	if len(body) > 0 {
		if _, err := c.conn.Write(body); err != nil {
			return fmt.Errorf("serve: websocket write: %w", err)
		}
	}
	return nil
}

// WriteText sends one text frame.
func (c *WSConn) WriteText(p []byte) error { return c.writeFrame(wsOpText, p) }

// WritePong answers a ping.
func (c *WSConn) WritePong(p []byte) error { return c.writeFrame(wsOpPong, p) }

// WriteClose sends a close frame with the given status code.
func (c *WSConn) WriteClose(code uint16, reason string) error {
	payload := make([]byte, 2, 2+len(reason))
	binary.BigEndian.PutUint16(payload, code)
	payload = append(payload, reason...)
	return c.writeFrame(wsOpClose, payload)
}

// errWSClosed reports a clean close handshake from the peer.
var errWSClosed = errors.New("serve: websocket closed by peer")

// ReadFrame reads the next frame, transparently unmasking. It returns the
// opcode and payload; a close frame returns errWSClosed after the payload.
// Frames RFC 6455 makes the receiver fail are errors: fragments, reserved
// bits or opcodes, a mask bit set by a server or missing from a client,
// and control frames over 125 bytes.
func (c *WSConn) ReadFrame() (byte, []byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("serve: websocket read: %w", err)
	}
	fin := hdr[0]&0x80 != 0
	op := hdr[0] & 0x0F
	if !fin || hdr[0]&0x70 != 0 || op == 0 {
		return 0, nil, fmt.Errorf("serve: fragmented or extended websocket frames unsupported")
	}
	switch op {
	case wsOpText, wsOpBinary, wsOpClose, wsOpPing, wsOpPong:
	default:
		return 0, nil, fmt.Errorf("serve: reserved websocket opcode %#x", op)
	}
	masked := hdr[1]&0x80 != 0
	if masked != c.server {
		if c.server {
			return 0, nil, fmt.Errorf("serve: client frames must be masked")
		}
		return 0, nil, fmt.Errorf("serve: server frames must not be masked")
	}
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, nil, fmt.Errorf("serve: websocket read: %w", err)
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, nil, fmt.Errorf("serve: websocket read: %w", err)
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > wsMaxPayload {
		return 0, nil, fmt.Errorf("serve: websocket frame of %d bytes exceeds limit", length)
	}
	if op >= wsOpClose && length > 125 {
		return 0, nil, fmt.Errorf("serve: websocket control frame of %d bytes exceeds 125", length)
	}
	var key [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, key[:]); err != nil {
			return 0, nil, fmt.Errorf("serve: websocket read: %w", err)
		}
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, nil, fmt.Errorf("serve: websocket read: %w", err)
	}
	if masked {
		for i := range payload {
			payload[i] ^= key[i%4]
		}
	}
	if op == wsOpClose {
		return op, payload, errWSClosed
	}
	return op, payload, nil
}

// CloseHandshake performs the closing handshake from our side: send close,
// wait (bounded) for the peer's close or EOF, then close the transport.
func (c *WSConn) CloseHandshake(code uint16, reason string, wait time.Duration) error {
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
func (c *WSConn) Close() error { return c.conn.Close() }
