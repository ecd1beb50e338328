// Operational-cycle timing model (Sec. III-A). A MEDA biochip is driven in
// operational cycles: the controller shifts an actuation bitstream into the
// MC array through a scan chain, the MCs actuate, every MC senses, and the
// sensing results are shifted out as a bitstream. With the new MC design
// each cell contributes two sensing bits (the original and the added DFF),
// so the scan-out stream carries both droplet presence and health.
package circuit

import "time"

// CycleTiming models the duration of one operational cycle: scan-in of one
// actuation bit per MC, the EWOD actuation dwell, the sensing phase, and
// scan-out of two sensing bits per MC.
type CycleTiming struct {
	// ScanHz is the scan-chain clock frequency.
	ScanHz float64
	// Actuation is the EWOD actuation dwell per cycle.
	Actuation time.Duration
	// Sense is the sensing phase duration (charge, discharge, two DFF
	// samples).
	Sense time.Duration
}

// DefaultCycleTiming uses a 10 MHz scan clock, a 100 ms actuation dwell
// (droplets move on millisecond scales), and a 10 µs sensing phase —
// representative of the fabricated MEDA biochips the paper cites.
func DefaultCycleTiming() CycleTiming {
	return CycleTiming{ScanHz: 10e6, Actuation: 100 * time.Millisecond, Sense: 10 * time.Microsecond}
}

// CycleDuration returns the wall-clock duration of one operational cycle
// for an n-cell array: n scan-in bits + actuation + sensing + 2n scan-out
// bits.
func (t CycleTiming) CycleDuration(n int) time.Duration {
	scan := time.Duration(float64(3*n) / t.ScanHz * float64(time.Second))
	return scan + t.Actuation + t.Sense
}

// TimeToResult converts a cycle count into wall-clock time for an n-cell
// array, the quantity a clinician actually waits for.
func (t CycleTiming) TimeToResult(cycles, n int) time.Duration {
	return time.Duration(cycles) * t.CycleDuration(n)
}
