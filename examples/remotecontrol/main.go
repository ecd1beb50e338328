// Remote control: hardware-in-the-loop adaptive routing. A medad-style
// biochip device is hosted on a loopback TCP socket; the controller on the
// other end reads the 2-bit health matrix over the wire, synthesizes a
// routing strategy locally (Alg. 2), and drives the droplet one microfluidic
// action per operational cycle — the exact control loop of the paper's
// Fig. 13, with a network in the middle.
package main

import (
	"fmt"
	"log"
	"net"

	"meda"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/device"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/synth"
)

func main() {
	// --- device side: a biochip with a band of worn microelectrodes.
	cfg := chip.Default()
	src := randx.New(99)
	c, err := chip.New(cfg, src.Split("chip"))
	if err != nil {
		log.Fatal(err)
	}
	// Pre-wear a column band so the remote controller has something to
	// route around.
	for i := 0; i < 400; i++ {
		c.Actuate(meda.Rect{XA: 12, YA: 4, XB: 15, YB: 14})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go device.NewServer(c, src.Split("nature")).Serve(ln)
	fmt.Printf("device: biochip served on %s\n", ln.Addr())

	// --- controller side: everything below talks only to the socket.
	conn, err := device.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	w, h, bits, err := conn.Info()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("controller: connected to a %d×%d chip with %d-bit sensing\n", w, h, bits)

	rj := route.RJ{
		Start:  meda.Rect{XA: 2, YA: 6, XB: 5, YB: 9},
		Goal:   meda.Rect{XA: 22, YA: 6, XB: 25, YB: 9},
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 28, YB: 16},
	}
	id, err := conn.Dispense(rj.Start)
	if err != nil {
		log.Fatal(err)
	}

	// Read the health matrix for the job's region and synthesize.
	region, codes, err := conn.Health(rj.Hazard)
	if err != nil {
		log.Fatal(err)
	}
	worn := 0
	field := func(x, y int) float64 {
		if x < region.XA || x > region.XB || y < region.YA || y > region.YB {
			return 0
		}
		d := degrade.DegradationFromHealth(codes[(y-region.YA)*region.Width()+(x-region.XA)], bits)
		return d * d
	}
	for _, code := range codes {
		if code < 3 {
			worn++
		}
	}
	fmt.Printf("controller: %d of %d microelectrodes in the region are degraded\n", worn, len(codes))

	res, err := synth.Synthesize(rj, field, synth.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if !res.Exists() {
		log.Fatal("no strategy exists")
	}
	fmt.Printf("controller: strategy synthesized (%d states, expected %.1f cycles)\n",
		res.Stats.States, res.Value)

	pos := rj.Start
	steps := 0
	for !rj.Goal.ContainsRect(pos) {
		a, ok := res.Policy.Lookup(pos)
		if !ok {
			log.Fatalf("policy undefined at %v", pos)
		} else if pos, err = conn.Act(id, a); err != nil {
			log.Fatal(err)
		}
		steps++
		if steps > 500 {
			log.Fatal("droplet did not arrive")
		}
	}
	cyc, _ := conn.Cycle()
	fmt.Printf("controller: droplet reached %v in %d cycles, routed around the worn band\n", pos, cyc)
}
