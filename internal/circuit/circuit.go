// Package circuit is a behavioral model of the microelectrode-cell (MC)
// sensing circuit of Sec. III, replacing the paper's HSPICE simulation of the
// fabricated 350 nm CMOS cell (Fig. 1–2, Table I).
//
// During a sensing phase the bottom plate is charged to VDD and then
// discharged through the sensing path; a D flip-flop samples whether the
// plate voltage has crossed the sensing threshold at a preset clock edge.
// Charge trapping raises the electrode capacitance (Table I: 2.375 fF
// healthy, 2.380 fF partially degraded, 2.385 fF completely degraded), which
// delays the threshold crossing. The new MC design adds a second DFF whose
// clock edge arrives 5 ns later; the pair of sampled bits distinguishes the
// three degradation classes:
//
//	healthy             → "11"
//	partially degraded  → "01"  (original DFF 0, added DFF 1)
//	completely degraded → "00"
//
// The effective discharge resistance is chosen so that one capacitance step
// (5 aF) shifts the crossing time by ≈5 ns, matching the paper's finding that
// the added DFF's clock must be asserted 5 ns after the original one.
package circuit

import (
	"fmt"
	"math"
)

// Table I constants.
const (
	// MicroelectrodeAreaUM2 is the microelectrode area A (50×50 µm²).
	MicroelectrodeAreaUM2 = 2500.0
	// SiliconOilPermittivity is ε_o in F/m.
	SiliconOilPermittivity = 19e-12
	// CHealthy is C_o, the capacitance of a healthy microelectrode (F).
	CHealthy = 2.375e-15
	// CPartial is C_d1, the capacitance of a partially degraded
	// microelectrode (F).
	CPartial = 2.380e-15
	// CDegraded is C_d2, the capacitance of a completely degraded
	// microelectrode (F).
	CDegraded = 2.385e-15
)

// Electrical operating point of the sensing path.
const (
	// VDD is the supply voltage of the MC control circuit (3.3 V).
	VDD = 3.3
	// VThreshold is the DFF input threshold (mid-rail).
	VThreshold = VDD / 2
	// REffective is the effective discharge resistance of the sensing
	// path. Its value is calibrated so that the 5 aF capacitance step
	// between degradation classes maps to a ≈5 ns crossing-time step,
	// the clock-offset reported by the paper's HSPICE runs.
	REffective = 1.45e9
	// AddedDFFDelay is the extra clock delay of the new DFF (5 ns).
	AddedDFFDelay = 5e-9
)

// HealthClass is the three-way classification produced by 2-bit MC sensing.
type HealthClass int

const (
	// Healthy microelectrode: code "11".
	Healthy HealthClass = iota
	// PartiallyDegraded microelectrode: code "01".
	PartiallyDegraded
	// CompletelyDegraded microelectrode: code "00".
	CompletelyDegraded
)

// String names the class.
func (h HealthClass) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case PartiallyDegraded:
		return "partially-degraded"
	case CompletelyDegraded:
		return "completely-degraded"
	}
	return "unknown"
}

// Capacitance returns the Table I capacitance of the class.
func (h HealthClass) Capacitance() float64 {
	switch h {
	case Healthy:
		return CHealthy
	case PartiallyDegraded:
		return CPartial
	case CompletelyDegraded:
		return CDegraded
	}
	return math.NaN()
}

// Cell models the discharge path of one microelectrode cell.
type Cell struct {
	C   float64 // electrode capacitance (F)
	R   float64 // effective discharge resistance (Ω)
	Vdd float64 // initial (charged) plate voltage
	Vth float64 // DFF sampling threshold
}

// NewCell returns a cell with the default operating point and the given
// capacitance.
func NewCell(c float64) Cell {
	return Cell{C: c, R: REffective, Vdd: VDD, Vth: VThreshold}
}

// CellFor returns the cell modeling a degradation class.
func CellFor(h HealthClass) Cell { return NewCell(h.Capacitance()) }

// Voltage returns the plate voltage t seconds into the discharge phase:
// V(t) = VDD·e^(−t/RC).
func (c Cell) Voltage(t float64) float64 {
	if t <= 0 {
		return c.Vdd
	}
	return c.Vdd * math.Exp(-t/(c.R*c.C))
}

// CrossingTime returns the time at which the discharging plate crosses the
// DFF threshold: t = RC·ln(VDD/Vth).
func (c Cell) CrossingTime() float64 {
	return c.R * c.C * math.Log(c.Vdd/c.Vth)
}

// SampleBit returns the DFF value captured by a clock edge at time t: the DFF
// stores 1 once the plate has discharged below the threshold (the sensing
// event has completed), 0 while the plate is still above it.
func (c Cell) SampleBit(t float64) int {
	if c.Voltage(t) < c.Vth {
		return 1
	}
	return 0
}

// Timing is the pair of DFF clock-edge times used by the 2-bit sensing
// scheme.
type Timing struct {
	Original float64 // clock edge of the original DFF
	Added    float64 // clock edge of the added DFF (Original + 5 ns)
}

// DefaultTiming places the original DFF edge half a level-step after the
// healthy crossing time, and the added edge 5 ns later, so the three Table I
// capacitances map to the three codes.
func DefaultTiming() Timing {
	healthy := CellFor(Healthy).CrossingTime()
	partial := CellFor(PartiallyDegraded).CrossingTime()
	t1 := (healthy + partial) / 2
	return Timing{Original: t1, Added: t1 + AddedDFFDelay}
}

// Result is the outcome of one 2-bit sensing operation.
type Result struct {
	OriginalBit int
	AddedBit    int
}

// Code returns the 2-bit code string, original bit first (e.g. "11").
func (r Result) Code() string { return fmt.Sprintf("%d%d", r.OriginalBit, r.AddedBit) }

// Class maps the code to a health class. The code "10" cannot be produced by
// a monotone discharge (the added edge is strictly later) and is reported as
// CompletelyDegraded, the conservative reading.
func (r Result) Class() HealthClass {
	switch {
	case r.OriginalBit == 1 && r.AddedBit == 1:
		return Healthy
	case r.OriginalBit == 0 && r.AddedBit == 1:
		return PartiallyDegraded
	default:
		return CompletelyDegraded
	}
}

// Sense performs the 2-bit sensing operation on the cell.
func (c Cell) Sense(tm Timing) Result {
	return Result{
		OriginalBit: c.SampleBit(tm.Original),
		AddedBit:    c.SampleBit(tm.Added),
	}
}

// HealthBits maps the three-way class onto the b=2 health levels of the
// degradation model (Sec. IV-B): "11"→3, "01"→1, "00"→0. Level 2 is not
// produced by the three-capacitance bench but is representable by the model.
func (h HealthClass) HealthBits() int {
	switch h {
	case Healthy:
		return 3
	case PartiallyDegraded:
		return 1
	default:
		return 0
	}
}
