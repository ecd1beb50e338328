// Package client is the Go SDK for the medad fleet service: a thin typed
// wrapper over the REST API plus a WebSocket event stream, built on the
// standard library alone. The medasim/medaexp -remote modes, the service
// integration tests, and the docker smoke test all drive the server through
// this package.
//
//	cl := client.New("http://127.0.0.1:7070")
//	cl.CreateTenant(ctx, "acme")
//	cl.CreateChip(ctx, "acme", api.ChipSpec{ID: "c1", Seed: 1})
//	job, _ := cl.SubmitJob(ctx, "acme", api.JobSpec{Chip: "c1", Benchmark: "serial-dilution", Seed: 7})
//	done, _ := cl.WaitJob(ctx, "acme", job.ID)
package client

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"meda/pkg/api"
)

// Client talks to one fleet-service endpoint.
type Client struct {
	base string
	http *http.Client
}

// New builds a client for a base URL such as "http://127.0.0.1:7070". The
// returned client is safe for concurrent use.
func New(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), http: &http.Client{Timeout: 60 * time.Second}}
}

// apiError is a non-2xx response.
type apiError struct {
	Status  int
	Message string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// IsNotFound reports whether err is a 404 from the service.
func IsNotFound(err error) bool {
	var ae *apiError
	return asAPIError(err, &ae) && ae.Status == http.StatusNotFound
}

// IsConflict reports whether err is a 409 from the service — typically a
// resource that already exists, which idempotent callers can ignore.
func IsConflict(err error) bool {
	var ae *apiError
	return asAPIError(err, &ae) && ae.Status == http.StatusConflict
}

func asAPIError(err error, target **apiError) bool {
	for err != nil {
		if ae, ok := err.(*apiError); ok {
			*target = ae
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// do runs one request; out, when non-nil, receives the decoded JSON body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close() //lint:ignore errflowstrict response already consumed; a close error on a drained body carries no information
	if resp.StatusCode >= 300 {
		var envelope api.Error
		msg := ""
		if json.NewDecoder(resp.Body).Decode(&envelope) == nil {
			msg = envelope.Message
		}
		return &apiError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// Healthz fetches the controller summary.
func (c *Client) Healthz(ctx context.Context) (api.Health, error) {
	var h api.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches the telemetry snapshot served at /metrics.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// Metrics mirrors the server's telemetry snapshot (histograms are served
// too but rarely needed by clients; decode the raw endpoint for those).
type Metrics struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// CreateTenant registers a tenant.
func (c *Client) CreateTenant(ctx context.Context, id string) (api.Tenant, error) {
	var t api.Tenant
	err := c.do(ctx, http.MethodPost, "/api/v1/tenants", api.TenantSpec{ID: id}, &t)
	return t, err
}

// Tenants lists tenants.
func (c *Client) Tenants(ctx context.Context) ([]api.Tenant, error) {
	var ts []api.Tenant
	err := c.do(ctx, http.MethodGet, "/api/v1/tenants", nil, &ts)
	return ts, err
}

// CreateChip registers a chip under a tenant.
func (c *Client) CreateChip(ctx context.Context, tenant string, spec api.ChipSpec) (api.ChipStatus, error) {
	var st api.ChipStatus
	err := c.do(ctx, http.MethodPost, "/api/v1/tenants/"+url.PathEscape(tenant)+"/chips", spec, &st)
	return st, err
}

// Chips lists a tenant's chips.
func (c *Client) Chips(ctx context.Context, tenant string) ([]api.ChipStatus, error) {
	var sts []api.ChipStatus
	err := c.do(ctx, http.MethodGet, "/api/v1/tenants/"+url.PathEscape(tenant)+"/chips", nil, &sts)
	return sts, err
}

// Chip reports one chip.
func (c *Client) Chip(ctx context.Context, tenant, chip string) (api.ChipStatus, error) {
	var st api.ChipStatus
	err := c.do(ctx, http.MethodGet, "/api/v1/tenants/"+url.PathEscape(tenant)+"/chips/"+url.PathEscape(chip), nil, &st)
	return st, err
}

// ChipHealth downloads the chip's serialized health map (chip-state JSON)
// as of its last job boundary.
func (c *Client) ChipHealth(ctx context.Context, tenant, chip string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/api/v1/tenants/"+url.PathEscape(tenant)+"/chips/"+url.PathEscape(chip)+"/health", nil)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: fetching chip health: %w", err)
	}
	defer resp.Body.Close() //lint:ignore errflowstrict response already consumed; a close error on a drained body carries no information
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading chip health: %w", err)
	}
	if resp.StatusCode >= 300 {
		var envelope api.Error
		msg := ""
		if json.Unmarshal(raw, &envelope) == nil {
			msg = envelope.Message
		}
		return nil, &apiError{Status: resp.StatusCode, Message: msg}
	}
	return raw, nil
}

// UploadChipHealth replaces an idle chip's state with a health map
// (chip-state JSON, e.g. a previous ChipHealth download or a map measured
// on real hardware).
func (c *Client) UploadChipHealth(ctx context.Context, tenant, chip string, state []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		c.base+"/api/v1/tenants/"+url.PathEscape(tenant)+"/chips/"+url.PathEscape(chip)+"/health",
		bytes.NewReader(state))
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: uploading chip health: %w", err)
	}
	defer resp.Body.Close() //lint:ignore errflowstrict response already consumed; a close error on a drained body carries no information
	if resp.StatusCode >= 300 {
		var envelope api.Error
		msg := ""
		if json.NewDecoder(resp.Body).Decode(&envelope) == nil {
			msg = envelope.Message
		}
		return &apiError{Status: resp.StatusCode, Message: msg}
	}
	return nil
}

// SubmitJob queues a job.
func (c *Client) SubmitJob(ctx context.Context, tenant string, spec api.JobSpec) (api.JobStatus, error) {
	var st api.JobStatus
	// Static constraints fail fast client-side; the server re-validates
	// against live state (chip existence, benchmark name, DSL parse).
	if err := spec.Validate(); err != nil {
		return st, err
	}
	err := c.do(ctx, http.MethodPost, "/api/v1/tenants/"+url.PathEscape(tenant)+"/jobs", spec, &st)
	return st, err
}

// Jobs lists a tenant's jobs; chip filters to one chip when non-empty.
func (c *Client) Jobs(ctx context.Context, tenant, chip string) ([]api.JobStatus, error) {
	path := "/api/v1/tenants/" + url.PathEscape(tenant) + "/jobs"
	if chip != "" {
		path += "?chip=" + url.QueryEscape(chip)
	}
	var sts []api.JobStatus
	err := c.do(ctx, http.MethodGet, path, nil, &sts)
	return sts, err
}

// Job reports one job.
func (c *Client) Job(ctx context.Context, tenant, id string) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.do(ctx, http.MethodGet, "/api/v1/tenants/"+url.PathEscape(tenant)+"/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// CancelJob cancels a queued job immediately, or asks a running one to
// stop at its next checkpoint.
func (c *Client) CancelJob(ctx context.Context, tenant, id string) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.do(ctx, http.MethodDelete, "/api/v1/tenants/"+url.PathEscape(tenant)+"/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// AddWebhook registers a webhook.
func (c *Client) AddWebhook(ctx context.Context, tenant string, spec api.WebhookSpec) error {
	return c.do(ctx, http.MethodPost, "/api/v1/tenants/"+url.PathEscape(tenant)+"/webhooks", spec, nil)
}

// Webhooks lists a tenant's webhooks.
func (c *Client) Webhooks(ctx context.Context, tenant string) ([]api.WebhookSpec, error) {
	var hooks []api.WebhookSpec
	err := c.do(ctx, http.MethodGet, "/api/v1/tenants/"+url.PathEscape(tenant)+"/webhooks", nil, &hooks)
	return hooks, err
}

// WaitJob polls until the job reaches a terminal state or ctx expires.
func (c *Client) WaitJob(ctx context.Context, tenant, id string) (api.JobStatus, error) {
	for {
		st, err := c.Job(ctx, tenant, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(150 * time.Millisecond):
		}
	}
}

// EventStream is a live WebSocket subscription to a tenant's events.
type EventStream struct {
	conn net.Conn
	br   *bufio.Reader
}

// StreamEvents opens the tenant's event stream ("" streams every tenant).
// The stream must be closed; events arrive through Next.
func (c *Client) StreamEvents(ctx context.Context, tenant string) (*EventStream, error) {
	u, err := url.Parse(c.base)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("client: event streaming requires an http base URL, got %q", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	path := "/api/v1/events"
	if tenant != "" {
		path = "/api/v1/tenants/" + url.PathEscape(tenant) + "/events"
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, fmt.Errorf("client: dialing event stream: %w", err)
	}
	fail := func(err error) (*EventStream, error) {
		conn.Close() //lint:ignore errflowstrict the handshake already failed; the close error cannot add anything
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(deadline); err != nil {
			return fail(fmt.Errorf("client: setting handshake deadline: %w", err))
		}
	}
	var keyRaw [16]byte
	if _, err := rand.Read(keyRaw[:]); err != nil {
		return fail(fmt.Errorf("client: generating websocket key: %w", err))
	}
	key := base64.StdEncoding.EncodeToString(keyRaw[:])
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", path, u.Host, key)
	if _, err := io.WriteString(conn, req); err != nil {
		return fail(fmt.Errorf("client: writing websocket handshake: %w", err))
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return fail(fmt.Errorf("client: reading websocket handshake: %w", err))
	}
	resp.Body.Close() //lint:ignore errflowstrict a 101 response carries no body; nothing can be lost
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return fail(&apiError{Status: resp.StatusCode, Message: "websocket upgrade refused"})
	}
	if !strings.EqualFold(resp.Header.Get("Upgrade"), "websocket") {
		return fail(fmt.Errorf("client: server did not upgrade to websocket"))
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return fail(fmt.Errorf("client: clearing handshake deadline: %w", err))
	}
	return &EventStream{conn: conn, br: br}, nil
}

// Next blocks for the next event. io.EOF (or a wrapped close) means the
// server ended the stream; the returned error after a clean server close
// handshake is io.EOF.
func (s *EventStream) Next() (api.Event, error) {
	for {
		op, payload, err := readWSFrame(s.br)
		if err != nil {
			return api.Event{}, err
		}
		switch op {
		case 0x1: // text
			var ev api.Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				return api.Event{}, fmt.Errorf("client: decoding event: %w", err)
			}
			return ev, nil
		case 0x8: // close: answer in kind, then report end-of-stream
			writeWSFrame(s.conn, 0x8, payload) //lint:ignore errflowstrict the server is closing; a failed echo changes nothing
			return api.Event{}, io.EOF
		case 0x9: // ping
			if err := writeWSFrame(s.conn, 0xA, payload); err != nil {
				return api.Event{}, err
			}
		default: // binary or pong: skip
		}
	}
}

// Close tears the stream down.
func (s *EventStream) Close() error { return s.conn.Close() }

// wsMaxPayload bounds the payload of one frame read from the server.
const wsMaxPayload = 1 << 20

// readWSFrame reads one unfragmented, unmasked (server-to-client) frame.
// Frames RFC 6455 makes the receiver fail are errors: fragments and
// continuations, reserved bits or opcodes, a mask bit, and control frames
// over 125 bytes.
func readWSFrame(br *bufio.Reader) (byte, []byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	op := hdr[0] & 0x0F
	if hdr[0]&0x80 == 0 || hdr[0]&0x70 != 0 || op == 0 {
		return 0, nil, fmt.Errorf("client: fragmented or extended websocket frames unsupported")
	}
	switch op {
	case 0x1, 0x2, 0x8, 0x9, 0xA: // text, binary, close, ping, pong
	default:
		return 0, nil, fmt.Errorf("client: reserved websocket opcode %#x", op)
	}
	if hdr[1]&0x80 != 0 {
		return 0, nil, fmt.Errorf("client: server frames must not be masked")
	}
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return 0, nil, err
		}
		length = uint64(ext[0])<<8 | uint64(ext[1])
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return 0, nil, err
		}
		length = 0
		for _, b := range ext {
			length = length<<8 | uint64(b)
		}
	}
	if length > wsMaxPayload {
		return 0, nil, fmt.Errorf("client: websocket frame of %d bytes exceeds limit", length)
	}
	if op >= 0x8 && length > 125 {
		return 0, nil, fmt.Errorf("client: websocket control frame of %d bytes exceeds 125", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	return op, payload, nil
}

// writeWSFrame writes one masked (client-to-server) frame.
func writeWSFrame(conn net.Conn, op byte, payload []byte) error {
	header := make([]byte, 0, 14)
	header = append(header, 0x80|op)
	switch {
	case len(payload) < 126:
		header = append(header, 0x80|byte(len(payload)))
	case len(payload) <= 0xFFFF:
		header = append(header, 0x80|126, byte(len(payload)>>8), byte(len(payload)))
	default:
		header = append(header, 0x80|127)
		n := uint64(len(payload))
		for shift := 56; shift >= 0; shift -= 8 {
			header = append(header, byte(n>>uint(shift)))
		}
	}
	var key [4]byte
	if _, err := rand.Read(key[:]); err != nil {
		return fmt.Errorf("client: generating mask key: %w", err)
	}
	header = append(header, key[:]...)
	masked := make([]byte, len(payload))
	for i, b := range payload {
		masked[i] = b ^ key[i%4]
	}
	if _, err := conn.Write(append(header, masked...)); err != nil {
		return fmt.Errorf("client: websocket write: %w", err)
	}
	return nil
}
