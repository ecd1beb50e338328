package client

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"meda/internal/ws"
	"meda/pkg/api"
)

// errServer always answers with the given status and an api.Error body.
func errServer(status int) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(`{"error":"nope"}`)) //nolint
	}))
}

func TestErrorClassification(t *testing.T) {
	cases := []struct {
		status                 int
		isNotFound, isConflict bool
	}{
		{http.StatusNotFound, true, false},
		{http.StatusConflict, false, true},
		{http.StatusBadRequest, false, false},
		{http.StatusInternalServerError, false, false},
	}
	ctx := context.Background()
	for _, c := range cases {
		hs := errServer(c.status)
		_, err := New(hs.URL).Tenants(ctx)
		hs.Close()
		if err == nil {
			t.Fatalf("status %d: no error", c.status)
		}
		if got := IsNotFound(err); got != c.isNotFound {
			t.Errorf("status %d: IsNotFound = %v, want %v", c.status, got, c.isNotFound)
		}
		if got := IsConflict(err); got != c.isConflict {
			t.Errorf("status %d: IsConflict = %v, want %v", c.status, got, c.isConflict)
		}
	}
	// Transport errors are not API errors.
	if _, err := New("http://127.0.0.1:1").Tenants(ctx); err == nil || IsNotFound(err) || IsConflict(err) {
		t.Errorf("transport error misclassified: %v", err)
	}
}

// The error message carries the server's envelope text, not just a status.
func TestErrorMessageSurfaced(t *testing.T) {
	hs := errServer(http.StatusBadRequest)
	defer hs.Close()
	_, err := New(hs.URL).Tenants(context.Background())
	if err == nil || err.Error() == "" {
		t.Fatalf("err = %v", err)
	}
	if want := "nope"; !contains(err.Error(), want) {
		t.Errorf("error %q does not carry the server message %q", err.Error(), want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMetricsDecode(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"counters":{"serve.jobs.submitted":3},"gauges":{"pool.arena.reuse_ratio":0.5}}`)) //nolint
	}))
	defer hs.Close()
	m, err := New(hs.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["serve.jobs.submitted"] != 3 || m.Gauges["pool.arena.reuse_ratio"] != 0.5 {
		t.Fatalf("metrics = %+v", m)
	}
}

// Requests honor context cancellation.
func TestContextCancellation(t *testing.T) {
	blocked := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-blocked
	}))
	defer hs.Close()
	defer close(blocked)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(hs.URL).Healthz(ctx); err == nil {
		t.Fatal("canceled context produced no error")
	}
}

// Spec validation runs client-side before any bytes hit the wire.
func TestSubmitValidatesLocally(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("invalid spec reached the server")
	}))
	defer hs.Close()
	if _, err := New(hs.URL).SubmitJob(context.Background(), "t", api.JobSpec{}); err == nil {
		t.Fatal("empty job spec accepted")
	}
}

// upgradeServer answers one WebSocket handshake with 101 and the accept
// value accept computes from the client's key, then reports what the
// client did next: nil when it closed the socket, else the read error or
// an error for data it sent.
func upgradeServer(t *testing.T, accept func(key string) string) (url string, next <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		req, err := http.ReadRequest(br)
		if err != nil {
			ch <- err
			return
		}
		io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+ //nolint
			"Sec-WebSocket-Accept: "+accept(req.Header.Get("Sec-WebSocket-Key"))+"\r\n\r\n")
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint
		if _, err := br.ReadByte(); err != io.EOF {
			ch <- errors.Join(errors.New("client kept the socket open"), err)
			return
		}
		ch <- nil
	}()
	return "http://" + ln.Addr().String(), ch
}

// RFC 6455 §4.1: the SDK fails the connection, closing the socket, when
// the server's Sec-WebSocket-Accept does not match the key it sent.
func TestStreamEventsVerifiesAccept(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	base, next := upgradeServer(t, ws.AcceptKey)
	es, err := New(base).StreamEvents(ctx, "t")
	if err != nil {
		t.Fatalf("matching accept value: %v", err)
	}
	es.Close()
	if err := <-next; err != nil {
		t.Fatalf("matching accept value: %v", err)
	}

	base, next = upgradeServer(t, func(key string) string { return ws.AcceptKey(key + "x") })
	if _, err := New(base).StreamEvents(ctx, "t"); err == nil {
		t.Fatal("wrong accept value: stream opened")
	}
	if err := <-next; err != nil {
		t.Fatalf("wrong accept value: %v", err)
	}
}

// A refused upgrade surfaces the server's status like any REST call.
func TestStreamEventsRefused(t *testing.T) {
	hs := errServer(http.StatusNotFound)
	defer hs.Close()
	if _, err := New(hs.URL).StreamEvents(context.Background(), "ghost"); !IsNotFound(err) {
		t.Fatalf("err = %v, want a 404", err)
	}
}
