// Device-protocol mode: hosts one simulated MEDA biochip on a TCP socket,
// speaking the newline-delimited JSON protocol of internal/device — the
// cyber-physical interface between a routing controller and the chip
// (Fig. 13/14).
package main

import (
	"errors"
	"fmt"
	"net"
	"os"

	"meda/internal/chip"
	"meda/internal/device"
	"meda/internal/randx"
)

// deviceMode wraps the single-chip device server plus its wear-persistence
// file, so run() can treat it like the other serving modes.
type deviceMode struct {
	cfg config
	srv *device.Server
}

// newDeviceMode builds the chip (restoring persisted wear when the state
// file exists) and the device server around it.
func newDeviceMode(cfg config) (*deviceMode, error) {
	src := randx.New(cfg.seed)
	var c *chip.Chip
	if cfg.statePath != "" {
		if f, ferr := os.Open(cfg.statePath); ferr == nil {
			lc, err := chip.LoadState(f)
			//lint:ignore errflowstrict close error on a read-only file is meaningless once LoadState decided
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("restoring chip state: %w", err)
			}
			c = lc
			fmt.Printf("medad: restored worn chip from %s\n", cfg.statePath)
		}
	}
	if c == nil {
		var err error
		c, err = chip.New(cfg.chipCfg, src.Split("chip"))
		if err != nil {
			return nil, err
		}
	}
	return &deviceMode{cfg: cfg, srv: device.NewServer(c, src.Split("nature"))}, nil
}

// serve accepts device connections until the listener closes. A clean
// listener close (the shutdown path) saves the chip's wear, like powering
// down real hardware — the save happens here, after Serve returns, through
// the device lock, never on a goroutine racing the connection handlers.
func (d *deviceMode) serve(ln net.Listener) error {
	serveErr := d.srv.Serve(ln)
	if !errors.Is(serveErr, net.ErrClosed) {
		return serveErr
	}
	if d.cfg.statePath == "" {
		return nil
	}
	f, err := os.Create(d.cfg.statePath)
	if err == nil {
		err = d.srv.SaveState(f)
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("saving chip state: %w", err)
	}
	fmt.Printf("medad: chip state saved to %s\n", d.cfg.statePath)
	return nil
}
