package device

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"testing"

	"meda/internal/action"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/smg"
	"meda/internal/synth"
)

func rect(xa, ya, xb, yb int) geom.Rect { return geom.Rect{XA: xa, YA: ya, XB: xb, YB: yb} }

// startServer launches a device on a loopback listener and returns a
// connected controller.
func startServer(t *testing.T, cfg chip.Config, seed uint64) *Conn {
	t.Helper()
	c, err := chip.New(cfg, randx.New(seed).Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, randx.New(seed).Split("nature"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func robustConfig() chip.Config {
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}
	return cfg
}

func TestInfoAndCycle(t *testing.T) {
	conn := startServer(t, robustConfig(), 1)
	w, h, bits, err := conn.Info()
	if err != nil {
		t.Fatal(err)
	}
	if w != 60 || h != 30 || bits != 2 {
		t.Errorf("info = %d×%d/%d", w, h, bits)
	}
	cyc, err := conn.Cycle()
	if err != nil || cyc != 0 {
		t.Errorf("fresh cycle = %d/%v", cyc, err)
	}
}

func TestDispenseActRemove(t *testing.T) {
	conn := startServer(t, robustConfig(), 2)
	id, err := conn.Dispense(rect(1, 1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// On a robust chip an east move always succeeds.
	nd, err := conn.Act(id, action.MoveE)
	if err != nil {
		t.Fatal(err)
	}
	if nd != rect(2, 1, 5, 4) {
		t.Errorf("after aE: %v", nd)
	}
	cyc, _ := conn.Cycle()
	if cyc != 1 {
		t.Errorf("cycle = %d, want 1", cyc)
	}
	if err := conn.Hold(id); err != nil {
		t.Fatal(err)
	}
	if err := conn.Remove(id); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Act(id, action.MoveE); err == nil {
		t.Error("acting on a removed droplet must fail")
	}
}

func TestDeviceRejectsIllegalRequests(t *testing.T) {
	conn := startServer(t, robustConfig(), 3)
	if _, err := conn.Dispense(rect(-3, 1, 0, 4)); err == nil {
		t.Error("off-chip dispense accepted")
	}
	id, err := conn.Dispense(rect(1, 1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Second droplet too close.
	if _, err := conn.Dispense(rect(5, 1, 8, 4)); err == nil {
		t.Error("margin-violating dispense accepted")
	}
	// Moving off the west edge.
	if _, err := conn.Act(id, action.MoveW); err == nil {
		t.Error("off-chip move accepted")
	}
	// Unknown action name via raw protocol.
	if _, err := conn.roundTrip(Request{Op: "act", ID: id, Action: "aTeleport"}); err == nil {
		t.Error("unknown action accepted")
	}
	if _, err := conn.roundTrip(Request{Op: "frobnicate"}); err == nil {
		t.Error("unknown op accepted")
	}
	if !strings.Contains(mustErr(t, conn, Request{Op: "remove", ID: 99}), "no droplet") {
		t.Error("bad remove error")
	}
}

func mustErr(t *testing.T, c *Conn, req Request) string {
	t.Helper()
	resp, err := c.roundTrip(req)
	if err == nil {
		t.Fatalf("request %+v unexpectedly succeeded: %+v", req, resp)
	}
	return err.Error()
}

// TestRemoteAdaptiveRouting is the hardware-in-the-loop integration test: a
// controller reads the health matrix over the wire, synthesizes a strategy
// locally, and drives the droplet action by action until the goal.
func TestRemoteAdaptiveRouting(t *testing.T) {
	conn := startServer(t, robustConfig(), 4)
	rj := route.RJ{
		Start:  rect(2, 2, 5, 5),
		Goal:   rect(20, 10, 23, 13),
		Hazard: rect(1, 1, 26, 16),
	}
	id, err := conn.Dispense(rj.Start)
	if err != nil {
		t.Fatal(err)
	}
	// Fetch the health matrix for the job's region and build the observed
	// force field the synthesizer needs.
	region, codes, err := conn.Health(rj.Hazard)
	if err != nil {
		t.Fatal(err)
	}
	_, _, bits, err := conn.Info()
	if err != nil {
		t.Fatal(err)
	}
	field := func(x, y int) float64 {
		if x < region.XA || x > region.XB || y < region.YA || y > region.YB {
			return 0
		}
		i := (y-region.YA)*region.Width() + (x - region.XA)
		d := degrade.DegradationFromHealth(codes[i], bits)
		return d * d
	}
	res, err := synth.Synthesize(rj, field, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists() {
		t.Fatal("no strategy")
	}
	pos := rj.Start
	for step := 0; step < 200; step++ {
		if smg.GoalLabel(pos, rj.Goal) {
			if err := conn.Remove(id); err != nil {
				t.Fatal(err)
			}
			return
		}
		a, ok := res.Policy.Lookup(pos)
		if !ok {
			t.Fatalf("policy undefined at %v", pos)
		}
		pos, err = conn.Act(id, a)
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("droplet did not reach the goal in 200 cycles over the wire")
}

// TestDeviceWearIsReal: actuations over the protocol wear the chip; the
// health matrix read back eventually drops.
func TestDeviceWearIsReal(t *testing.T) {
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.1, Tau2: 0.2, C1: 10, C2: 20}
	conn := startServer(t, cfg, 5)
	id, err := conn.Dispense(rect(10, 10, 13, 13))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := conn.Hold(id); err != nil {
			t.Fatal(err)
		}
	}
	_, codes, err := conn.Health(rect(10, 10, 13, 13))
	if err != nil {
		t.Fatal(err)
	}
	worn := false
	for _, h := range codes {
		if h < 3 {
			worn = true
		}
	}
	if !worn {
		t.Error("60 holds left every code at top health")
	}
}

// TestTwoControllersShareTheChip: a second connection sees the state the
// first created — it is one physical device.
func TestTwoControllersShareTheChip(t *testing.T) {
	c, err := chip.New(robustConfig(), randx.New(6).Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, randx.New(6).Split("nature"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	c1, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	id, err := c1.Dispense(rect(1, 1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}

	c2, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// The second controller can move the first's droplet (same chip).
	if _, err := c2.Act(id, action.MoveE); err != nil {
		t.Fatal(err)
	}
	cyc, err := c1.Cycle()
	if err != nil || cyc != 1 {
		t.Errorf("shared cycle = %d/%v", cyc, err)
	}
}

// TestMalformedRequestLine: a line that is not JSON gets an error response
// on the same connection, which stays usable afterwards.
func TestMalformedRequestLine(t *testing.T) {
	c, err := chip.New(robustConfig(), randx.New(7).Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, randx.New(7).Split("nature"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(raw)
	if !sc.Scan() {
		t.Fatal("no response to a malformed line")
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Error, "bad request") {
		t.Errorf("malformed line response = %+v", resp)
	}
	// The connection survives: a well-formed request still works.
	if _, err := raw.Write([]byte(`{"op":"info"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("connection dead after a malformed line")
	}
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil || !resp.OK {
		t.Errorf("info after malformed line = %+v/%v", resp, err)
	}
}

// TestDispenseOverlapNamesOccupant: the occupied-dispense error identifies
// the droplet in the way, including an exact (not just margin) overlap.
func TestDispenseOverlapNamesOccupant(t *testing.T) {
	conn := startServer(t, robustConfig(), 8)
	id, err := conn.Dispense(rect(10, 10, 13, 13))
	if err != nil {
		t.Fatal(err)
	}
	msg := mustErr(t, conn, Request{Op: "dispense", Rect: [4]int{10, 10, 13, 13}})
	if !strings.Contains(msg, "occupied by droplet") || !strings.Contains(msg, "1") {
		t.Errorf("exact-overlap dispense error %q does not name droplet %d", msg, id)
	}
	// Inverted (invalid) rects are rejected before any overlap check.
	if !strings.Contains(mustErr(t, conn, Request{Op: "dispense", Rect: [4]int{5, 5, 2, 2}}), "off-chip") {
		t.Error("inverted dispense rect accepted")
	}
}

// TestActHoldUnknownDroplet: act and hold on an id that was never dispensed
// both fail without advancing the operational cycle.
func TestActHoldUnknownDroplet(t *testing.T) {
	conn := startServer(t, robustConfig(), 9)
	if !strings.Contains(mustErr(t, conn, Request{Op: "act", ID: 42, Action: "aE"}), "no droplet") {
		t.Error("act on unknown id: wrong error")
	}
	if !strings.Contains(mustErr(t, conn, Request{Op: "hold", ID: 42}), "no droplet") {
		t.Error("hold on unknown id: wrong error")
	}
	cyc, err := conn.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if cyc != 0 {
		t.Errorf("failed requests advanced the cycle to %d", cyc)
	}
}

// TestHealthRegionClipping: a region entirely off-chip errors; one partially
// off-chip is clipped, and the clipped rect sizes the returned codes.
func TestHealthRegionClipping(t *testing.T) {
	conn := startServer(t, robustConfig(), 10)
	if !strings.Contains(mustErr(t, conn, Request{Op: "health", Rect: [4]int{-10, -10, -5, -5}}), "off-chip") {
		t.Error("fully off-chip health region: wrong error")
	}
	region, codes, err := conn.Health(rect(-3, -3, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if region != rect(1, 1, 2, 2) {
		t.Errorf("clipped region = %v, want [1,1,2,2]", region)
	}
	if len(codes) != region.Width()*region.Height() {
		t.Errorf("%d codes for a %d-cell region", len(codes), region.Width()*region.Height())
	}
}

// TestRoundTripOnClosedTransport: requests after Close surface a transport
// error, not a silent zero response.
func TestRoundTripOnClosedTransport(t *testing.T) {
	conn := startServer(t, robustConfig(), 11)
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := conn.Info(); err == nil {
		t.Error("Info on a closed connection succeeded")
	}
}

// TestServerDropsMidResponse: the controller sees ErrUnexpectedEOF when the
// server goes away between request and response.
func TestServerDropsMidResponse(t *testing.T) {
	client, server := net.Pipe()
	conn := NewConn(client)
	defer conn.Close()
	go func() {
		// Swallow the request, then hang up without answering.
		buf := make([]byte, 1024)
		server.Read(buf)
		server.Close()
	}()
	if _, _, _, err := conn.Info(); err == nil {
		t.Error("no error when the server hung up mid-request")
	}
}
