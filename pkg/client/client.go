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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"meda/internal/ws"
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
	defer resp.Body.Close()
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
	defer resp.Body.Close()
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
	defer resp.Body.Close()
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
	conn *ws.Conn
}

// StreamEvents opens the tenant's event stream ("" streams every tenant).
// The stream must be closed; events arrive through Next.
func (c *Client) StreamEvents(ctx context.Context, tenant string) (*EventStream, error) {
	path := "/api/v1/events"
	if tenant != "" {
		path = "/api/v1/tenants/" + url.PathEscape(tenant) + "/events"
	}
	conn, err := ws.Dial(ctx, c.base+path)
	if err != nil {
		var se *ws.StatusError
		if errors.As(err, &se) {
			return nil, &apiError{Status: se.Status, Message: "websocket upgrade refused"}
		}
		return nil, fmt.Errorf("client: opening event stream: %w", err)
	}
	return &EventStream{conn: conn}, nil
}

// Next blocks for the next event. After a clean server close handshake the
// returned error is io.EOF; a connection that drops mid-stream returns an
// error wrapping io.EOF or the transport's error.
func (s *EventStream) Next() (api.Event, error) {
	for {
		op, payload, err := s.conn.ReadFrame()
		if errors.Is(err, ws.ErrClosed) {
			// Answer the server's close in kind, then report end-of-stream.
			s.conn.EchoClose(payload) //lint:ignore errflowstrict the server is closing; a failed echo changes nothing
			return api.Event{}, io.EOF
		}
		if err != nil {
			return api.Event{}, err
		}
		switch op {
		case ws.OpText:
			var ev api.Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				return api.Event{}, fmt.Errorf("client: decoding event: %w", err)
			}
			return ev, nil
		case ws.OpPing:
			if err := s.conn.WritePong(payload); err != nil {
				return api.Event{}, err
			}
		default: // binary or pong: skip
		}
	}
}

// Close tears the stream down.
func (s *EventStream) Close() error { return s.conn.Close() }
