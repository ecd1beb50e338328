// Package degrade implements the microelectrode degradation model of
// Sec. IV of the paper, the quantized health sensing of Sec. III, and the
// fault-injection modes used in the evaluation of Sec. VII.
//
// Charge trapping in the dielectric layer makes the effective actuation
// voltage on a microelectrode decay with the number of actuations n:
//
//	D(n) = V(n)/Va ≈ τ^(n/c)            (degradation level, Eq. 3)
//	F̄(n) = (V(n)/Va)² ≈ τ^(2n/c)        (relative EWOD force, Eq. 2)
//	H(n) = ⌊2^b · D(n)⌋                  (b-bit observed health level)
//
// where τ ∈ (0,1) and c > 0 are per-microelectrode constants. The observed
// health H is what the new 2-bit microelectrode-cell design senses in real
// time; the actual degradation D is hidden from the controller and only used
// by the simulator.
package degrade

import (
	"fmt"
	"math"
	"sort"

	"meda/internal/randx"
)

// Params are the degradation constants (τ, c) of a single microelectrode.
// The paper's PCB fits are in the range τ ∈ [0.53, 0.56], c ∈ [788, 823]
// (Fig. 6); the biochip-level evaluation samples c ~ U(200, 500) and
// τ ~ U(0.5, 0.9) (Sec. VII-B).
type Params struct {
	Tau float64
	C   float64
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	if !(p.Tau > 0 && p.Tau <= 1) {
		return fmt.Errorf("degrade: τ = %v out of (0,1]", p.Tau)
	}
	if !(p.C > 0) {
		return fmt.Errorf("degrade: c = %v must be positive", p.C)
	}
	return nil
}

// Degradation returns D(n) = τ^(n/c) ∈ [0,1].
func (p Params) Degradation(n int) float64 {
	return math.Pow(p.Tau, float64(n)/p.C)
}

// Force returns the relative EWOD force F̄(n) = τ^(2n/c) = D(n)².
func (p Params) Force(n int) float64 {
	d := p.Degradation(n)
	return d * d
}

// Health returns the b-bit observed health level H(n) = ⌊2^b·D(n)⌋, clamped
// to the representable range [0, 2^b−1]. (At n = 0 the raw formula yields
// 2^b, which does not fit in b bits; the hardware's fully-healthy code is the
// all-ones pattern, e.g. "11" for b = 2, so the top level is saturated.)
func (p Params) Health(n, b int) int {
	return QuantizeHealth(p.Degradation(n), b)
}

// QuantizeHealth maps a degradation level D ∈ [0,1] to the b-bit health code.
func QuantizeHealth(d float64, b int) int {
	if b < 1 {
		panic("degrade: health bits must be >= 1")
	}
	levels := 1 << uint(b)
	h := int(math.Floor(float64(levels) * d))
	if h >= levels {
		h = levels - 1
	}
	if h < 0 {
		h = 0
	}
	return h
}

// DegradationFromHealth returns the controller's estimate D̂ of the hidden
// degradation level given an observed b-bit health code: the midpoint of the
// quantization cell, except the top code which is estimated as fully healthy
// (it aliases D ∈ [1−1/2^b, 1]). The all-zeros code aliases D ∈ [0, 1/2^b),
// so its midpoint keeps such microelectrodes usable as a last resort — the
// synthesizer's expected-cost objective still avoids them strongly, but a
// droplet is not declared unroutable when the true force may be positive.
// Hard-failed cells (true D = 0) remain impassable in simulation regardless
// of the estimate.
func DegradationFromHealth(h, b int) float64 {
	levels := 1 << uint(b)
	if h >= levels-1 {
		return 1
	}
	if h < 0 {
		h = 0
	}
	return (float64(h) + 0.5) / float64(levels)
}

// ActuationsToDegradation inverts Eq. (3): the number of actuations after
// which the degradation level first drops to d. Returns +Inf when d is not
// reachable (d > 1 is clamped; τ = 1 never degrades).
func (p Params) ActuationsToDegradation(d float64) float64 {
	if d >= 1 {
		return 0
	}
	if d <= 0 || isOne(p.Tau) {
		return math.Inf(1)
	}
	return p.C * math.Log(d) / math.Log(p.Tau)
}

// MC is the degradation state of one microelectrode cell: its constants, its
// actuation counter, and an optional hard-fault threshold (Sec. VII-C: a
// faulty MC "exhibits a sudden failure at random actuation n", after which
// D = 0).
type MC struct {
	Params Params
	N      int // number of actuations so far
	// FailAt is the actuation count at which the MC fails hard; 0 means
	// the MC is a normal (non-faulty) cell that only wears gradually.
	FailAt int
}

// Actuate records one actuation cycle.
func (m *MC) Actuate() { m.N++ }

// Failed reports whether the hard fault has triggered.
func (m *MC) Failed() bool { return m.FailAt > 0 && m.N >= m.FailAt }

// Degradation returns the current actual degradation level D (0 if the hard
// fault has triggered).
func (m *MC) Degradation() float64 {
	if m.Failed() {
		return 0
	}
	return m.Params.Degradation(m.N)
}

// Force returns the current relative EWOD force F̄ = D².
func (m *MC) Force() float64 {
	d := m.Degradation()
	return d * d
}

// Health returns the observed b-bit health code for the current state.
func (m *MC) Health(b int) int { return QuantizeHealth(m.Degradation(), b) }

// ParamRange describes a uniform distribution over degradation constants:
// c ~ U(C1, C2) and τ ~ U(Tau1, Tau2), as configured in Sec. VII.
type ParamRange struct {
	Tau1, Tau2 float64
	C1, C2     float64
}

// DefaultNormal is the evaluation configuration of Sec. VII-B for normal
// microelectrodes: c ~ U(200, 500), τ ~ U(0.5, 0.9).
var DefaultNormal = ParamRange{Tau1: 0.5, Tau2: 0.9, C1: 200, C2: 500}

// Sample draws one set of constants from the range.
func (r ParamRange) Sample(src *randx.Source) Params {
	return Params{Tau: src.Uniform(r.Tau1, r.Tau2), C: src.Uniform(r.C1, r.C2)}
}

// Validate checks the range bounds.
func (r ParamRange) Validate() error {
	if !(0 < r.Tau1 && r.Tau1 <= r.Tau2 && r.Tau2 <= 1) {
		return fmt.Errorf("degrade: invalid τ range [%v,%v]", r.Tau1, r.Tau2)
	}
	if !(0 < r.C1 && r.C1 <= r.C2) {
		return fmt.Errorf("degrade: invalid c range [%v,%v]", r.C1, r.C2)
	}
	return nil
}

// FaultMode selects how hard-faulty MCs are placed on the array (Sec. VII-C).
type FaultMode int

const (
	// FaultNone injects no hard faults.
	FaultNone FaultMode = iota
	// FaultUniform scatters faulty MCs uniformly at random.
	FaultUniform
	// FaultClustered places faults as randomly-located 2×2 clusters of
	// adjacent MCs, which Sec. III-C argues is the realistic pattern.
	FaultClustered
)

// String names the mode.
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultUniform:
		return "uniform"
	case FaultClustered:
		return "clustered"
	}
	return "unknown"
}

// FaultPlan describes a fault-injection experiment: the placement mode, the
// fraction of MCs that are faulty, and the range of actuation counts at which
// a faulty MC fails hard.
type FaultPlan struct {
	Mode     FaultMode
	Fraction float64 // fraction of all MCs that are faulty, e.g. 0.05
	// FailAfter samples the hard-failure threshold (in actuations) for
	// each faulty MC: FailAt ~ U[Lo, Hi].
	FailAfterLo, FailAfterHi int
}

// Validate checks the plan.
func (p FaultPlan) Validate() error {
	if p.Mode == FaultNone {
		return nil
	}
	if p.Fraction < 0 || p.Fraction > 1 {
		return fmt.Errorf("degrade: fault fraction %v out of [0,1]", p.Fraction)
	}
	if p.FailAfterLo < 1 || p.FailAfterHi < p.FailAfterLo {
		return fmt.Errorf("degrade: invalid FailAfter range [%d,%d]", p.FailAfterLo, p.FailAfterHi)
	}
	return nil
}

// PlaceFaults returns the linear indices (y*w + x, 0-based) of the MCs made
// faulty on a w×h array under the plan, using src for all randomness. The
// clustered mode rounds the count down to whole 2×2 clusters.
func (p FaultPlan) PlaceFaults(w, h int, src *randx.Source) []int {
	if p.Mode == FaultNone || isZero(p.Fraction) {
		return nil
	}
	total := w * h
	count := int(math.Round(p.Fraction * float64(total)))
	if count == 0 {
		return nil
	}
	marked := make(map[int]bool, count)
	switch p.Mode {
	case FaultUniform:
		perm := src.Perm(total)
		for _, idx := range perm[:count] {
			marked[idx] = true
		}
	case FaultClustered:
		clusters := count / 4
		if clusters == 0 {
			clusters = 1
		}
		for len(marked) < clusters*4 {
			// Anchor of a 2×2 cluster; keep it fully on-chip.
			x := src.IntN(w - 1)
			y := src.IntN(h - 1)
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					marked[(y+dy)*w+(x+dx)] = true
				}
			}
		}
	}
	out := make([]int, 0, len(marked))
	for idx := range marked {
		out = append(out, idx)
	}
	// Map iteration order is randomized; sort so that downstream parameter
	// sampling is deterministic for a given seed.
	sort.Ints(out)
	return out
}

// isZero and isOne are exact sentinel comparisons (medalint floatcmp):
// Tau and Fraction are configuration constants compared against their
// documented sentinel values, not accumulated quantities.
func isZero(x float64) bool { return x == 0 }

// isOne is the τ = 1 "never degrades" sentinel.
func isOne(x float64) bool { return x == 1 }
