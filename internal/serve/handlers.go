// REST + WebSocket surface of the fleet service. Routes use the Go 1.22
// method-and-wildcard mux patterns; every body is JSON; errors use the
// {"error": "..."} envelope with conventional status codes (400 validation,
// 404 unknown resource, 409 conflicting state).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"meda/internal/telemetry"
	"meda/internal/ws"
	"meda/pkg/api"
)

// maxBodyBytes bounds request bodies; chip states for the default 60×30
// array are ~200 KiB, so 8 MiB leaves room for large custom chips.
const maxBodyBytes = 8 << 20

// closeWait is how long the event stream waits for the client's close frame
// after sending its own.
const closeWait = 2 * time.Second

// Handler builds the service mux over a fleet.
func Handler(f *Fleet) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.Healthz())
	})
	mux.Handle("GET /metrics", telemetry.Handler(telemetry.Default()))

	mux.HandleFunc("POST /api/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		var spec api.TenantSpec
		if !readJSON(w, r, &spec) {
			return
		}
		if err := f.CreateTenant(spec); err != nil {
			writeErr(w, err)
			return
		}
		t, err := f.Tenant(spec.ID)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, t)
	})
	mux.HandleFunc("GET /api/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.Tenants())
	})
	mux.HandleFunc("GET /api/v1/tenants/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		t, err := f.Tenant(r.PathValue("tenant"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, t)
	})

	mux.HandleFunc("POST /api/v1/tenants/{tenant}/chips", func(w http.ResponseWriter, r *http.Request) {
		var spec api.ChipSpec
		if !readJSON(w, r, &spec) {
			return
		}
		tenant := r.PathValue("tenant")
		if err := f.CreateChip(tenant, spec, nil); err != nil {
			writeErr(w, err)
			return
		}
		st, err := f.Chip(tenant, spec.ID)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /api/v1/tenants/{tenant}/chips", func(w http.ResponseWriter, r *http.Request) {
		chips, err := f.Chips(r.PathValue("tenant"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, chips)
	})
	mux.HandleFunc("GET /api/v1/tenants/{tenant}/chips/{chip}", func(w http.ResponseWriter, r *http.Request) {
		st, err := f.Chip(r.PathValue("tenant"), r.PathValue("chip"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /api/v1/tenants/{tenant}/chips/{chip}/health", func(w http.ResponseWriter, r *http.Request) {
		state, err := f.ChipHealth(r.PathValue("tenant"), r.PathValue("chip"))
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(state) //lint:ignore errflowstrict a failed response write means the client went away; nothing to do
	})
	mux.HandleFunc("PUT /api/v1/tenants/{tenant}/chips/{chip}/health", func(w http.ResponseWriter, r *http.Request) {
		state, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, api.Error{Message: err.Error()})
			return
		}
		if err := f.UploadChipHealth(r.PathValue("tenant"), r.PathValue("chip"), state); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})

	mux.HandleFunc("POST /api/v1/tenants/{tenant}/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec api.JobSpec
		if !readJSON(w, r, &spec) {
			return
		}
		st, err := f.SubmitJob(r.PathValue("tenant"), spec)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /api/v1/tenants/{tenant}/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs, err := f.Jobs(r.PathValue("tenant"), r.URL.Query().Get("chip"))
		if err != nil {
			writeErr(w, err)
			return
		}
		if jobs == nil {
			jobs = []api.JobStatus{}
		}
		writeJSON(w, http.StatusOK, jobs)
	})
	mux.HandleFunc("GET /api/v1/tenants/{tenant}/jobs/{job}", func(w http.ResponseWriter, r *http.Request) {
		st, err := f.Job(r.PathValue("tenant"), r.PathValue("job"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /api/v1/tenants/{tenant}/jobs/{job}", func(w http.ResponseWriter, r *http.Request) {
		st, err := f.CancelJob(r.PathValue("tenant"), r.PathValue("job"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("POST /api/v1/tenants/{tenant}/webhooks", func(w http.ResponseWriter, r *http.Request) {
		var spec api.WebhookSpec
		if !readJSON(w, r, &spec) {
			return
		}
		if err := f.AddWebhook(r.PathValue("tenant"), spec); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, spec)
	})
	mux.HandleFunc("GET /api/v1/tenants/{tenant}/webhooks", func(w http.ResponseWriter, r *http.Request) {
		hooks, err := f.Webhooks(r.PathValue("tenant"))
		if err != nil {
			writeErr(w, err)
			return
		}
		if hooks == nil {
			hooks = []api.WebhookSpec{}
		}
		writeJSON(w, http.StatusOK, hooks)
	})

	mux.HandleFunc("GET /api/v1/tenants/{tenant}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(f, w, r, r.PathValue("tenant"))
	})
	mux.HandleFunc("GET /api/v1/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(f, w, r, "")
	})
	return mux
}

// serveEvents upgrades to WebSocket and streams the tenant's events as one
// JSON text frame each until the client disconnects or the fleet stops.
func serveEvents(f *Fleet, w http.ResponseWriter, r *http.Request, tenant string) {
	if tenant != "" {
		if _, err := f.Tenant(tenant); err != nil {
			writeErr(w, err)
			return
		}
	}
	conn, err := ws.Upgrade(w, r)
	if err != nil {
		return // ws.Upgrade already wrote the HTTP error
	}
	events, cancel := f.Subscribe(tenant)
	defer cancel()

	// Reader: answers pings, detects the client's close frame or a dead
	// connection, and signals the writer loop to stop.
	gone := make(chan struct{})
	go wsEventReader(conn, gone)

	// goingAway performs the closing handshake without a second reader:
	// send our close frame, let the reader goroutine observe the peer's
	// reply (or give up after the grace period), then drop the transport.
	goingAway := func() {
		conn.WriteClose(ws.CloseGoingAway, "server shutting down") //lint:ignore errflowstrict the peer may already be gone; the stream is over either way
		select {
		case <-gone:
		case <-time.After(closeWait):
		}
		conn.Close() //lint:ignore errflowstrict the stream is over either way; unblocks a still-waiting reader
		<-gone
	}

	for {
		select {
		case ev, ok := <-events:
			if !ok {
				goingAway() // fleet shutdown closed the subscription
				return
			}
			payload, merr := json.Marshal(ev)
			if merr != nil {
				continue
			}
			if conn.WriteText(payload) != nil {
				conn.Close() //lint:ignore errflowstrict write already failed; the close error cannot add anything
				<-gone
				return
			}
		case <-gone:
			conn.Close() //lint:ignore errflowstrict client initiated the teardown; nothing left to report to it
			return
		case <-f.stop:
			goingAway()
			return
		}
	}
}

// wsEventReader is the event stream's read side: it answers pings, and
// closes gone when the client sends its close frame or the connection
// dies. It is the channel's only sender (a close is its one message).
func wsEventReader(conn *ws.Conn, gone chan<- struct{}) {
	defer close(gone)
	for {
		op, payload, err := conn.ReadFrame()
		if err != nil {
			return
		}
		if op == ws.OpPing {
			if conn.WritePong(payload) != nil {
				return
			}
		}
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //lint:ignore errflowstrict a failed response write means the client went away; nothing to do
}

// readJSON decodes the body into v, writing a 400 on failure. The body must
// hold exactly one JSON value: only whitespace (json.Encoder's trailing
// newline) may follow it.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, api.Error{Message: fmt.Sprintf("decoding request: %v", err)})
		return false
	}
	return true
}

// writeErr maps fleet errors onto status codes.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var nf errNotFound
	var cf errConflict
	switch {
	case errors.As(err, &nf):
		status = http.StatusNotFound
	case errors.As(err, &cf):
		status = http.StatusConflict
	}
	writeJSON(w, status, api.Error{Message: err.Error()})
}
