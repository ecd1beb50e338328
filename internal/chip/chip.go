// Package chip models the physical MEDA biochip: a W×H array of
// microelectrode cells with per-cell degradation state (Sec. III/V), the
// actuation interface used by the controller, and the two views of
// microelectrode condition that drive the paper's framework:
//
//   - the hidden degradation matrix D, known only to the simulator, and
//   - the observed b-bit health matrix H, produced by the 2-bit sensing
//     hardware of Sec. III and the only condition information available to
//     the routing strategy synthesizer.
//
// Coordinates are 1-based: x ∈ [1, W], y ∈ [1, H].
package chip

import (
	"fmt"
	"math"

	"meda/internal/action"
	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/randx"
)

// Config describes how to instantiate a biochip.
type Config struct {
	W, H int
	// HealthBits is b, the number of health-sensing bits (2 for the new
	// MC design of Sec. III).
	HealthBits int
	// Normal is the degradation-constant distribution for normal MCs
	// (Sec. VII-B: c ~ U(200,500), τ ~ U(0.5,0.9)).
	Normal degrade.ParamRange
	// Faulty optionally overrides the constant distribution for MCs
	// selected by the fault plan; zero value means "same as Normal".
	Faulty degrade.ParamRange
	// Faults is the hard-fault injection plan (Sec. VII-C).
	Faults degrade.FaultPlan
}

// Default returns the evaluation configuration of Sec. VII-B: a fabricated
// 30×60 MEDA biochip (we write it W=60 columns × H=30 rows) with 2-bit
// health sensing and the default degradation ranges, no hard faults.
func Default() Config {
	return Config{W: 60, H: 30, HealthBits: 2, Normal: degrade.DefaultNormal}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.W < 1 || c.H < 1 {
		return fmt.Errorf("chip: invalid dimensions %d×%d", c.W, c.H)
	}
	if c.HealthBits < 1 || c.HealthBits > 8 {
		return fmt.Errorf("chip: health bits %d out of [1,8]", c.HealthBits)
	}
	if err := c.Normal.Validate(); err != nil {
		return err
	}
	if c.Faulty != (degrade.ParamRange{}) {
		if err := c.Faulty.Validate(); err != nil {
			return err
		}
	}
	return c.Faults.Validate()
}

// FaultModel perturbs the chip's physical and sensed behaviour — the
// interface internal/fault's Injector implements. The chip declares the
// interface locally so the dependency points from the fault subsystem to the
// chip, not the other way around.
//
// PhysicalDegradation maps the fault-free degradation level d of the cell at
// (x, y) with actuation count n to the effective level driving EWOD force.
// SensedHealth maps the fault-free b-bit health code h of the same cell to
// the code the sensor actually reports. Both must be pure functions of their
// arguments (plus the model's fixed seed): the chip calls them on every
// force and health read, including from snapshot copies taken for background
// synthesis workers.
//
// Purity in (x, y, n, h, bits) is also what makes HealthStamp sound: with a
// model attached, a cell's sensed code can change only when its n or its
// fault-free code h changes, that is when the cell is actuated, so Actuate
// moves the stamp on every call while a model is attached. A model whose
// sensed codes drift with hidden state (a wall clock, a read counter, a
// mutable RNG) would change HealthHash without moving HealthStamp, and the
// executor would keep a strategy built from a health matrix that no longer
// holds.
type FaultModel interface {
	PhysicalDegradation(x, y, n int, d float64) float64
	SensedHealth(x, y, n, h, bits int) int
}

// Chip is the simulated biochip state.
//
// The fault-free health matrix H is latched state, like the DFF pair of each
// microelectrode cell (Sec. III): codes[i] holds mcs[i].Health(bits) and
// changes only in New, LoadState and Actuate, the three places mcs changes.
// The fault overlay is applied on read, not latched.
//
// A latched code never rises with wear, so Actuate recomputes it only when
// the cell's counter reaches relatch[i], the count of its next quantization
// drop (or of its hard fault). Every event that may change a sensed code
// moves the chip-wide health generation gen (HealthStamp).
type Chip struct {
	w, h    int
	bits    int
	mcs     []degrade.MC // row-major, index = (y−1)*w + (x−1)
	codes   []uint8      // fault-free health code per MC, same indexing as mcs
	relatch []int32      // N at which codes[i] is next recomputed; 0 until the cell's first actuation
	force   []float64    // observed force per health code: DegradationFromHealth(h, bits)²
	faults  FaultModel   // nil means fault-free
	gen     uint64       // health generation: bumped by every event that may change a sensed code
}

// newChip returns a w×h chip of pristine, never-actuated MCs with b-bit
// sensing; callers set the MC state and then call latchAll.
func newChip(w, h, bits int) *Chip {
	c := &Chip{w: w, h: h, bits: bits, mcs: make([]degrade.MC, w*h), codes: make([]uint8, w*h), relatch: make([]int32, w*h)}
	c.force = make([]float64, 1<<uint(bits))
	for code := range c.force {
		d := degrade.DegradationFromHealth(code, bits)
		c.force[code] = d * d
	}
	return c
}

// latchAll refreshes every cell's latched health code from its MC state and
// moves the health generation. It leaves relatch at 0, so each cell's next
// drop is found on its first actuation rather than for the whole array up
// front.
func (c *Chip) latchAll() {
	for i := range c.mcs {
		c.codes[i] = uint8(c.mcs[i].Health(c.bits))
	}
	c.gen++
}

// AttachFaults overlays a fault model on the chip's force production and
// health sensing. Passing nil detaches. Either way every sensed code may
// change, so the health generation moves. Attach before handing the chip to
// a runner; the overlay itself is safe for concurrent reads but attaching is
// not synchronized against them.
func (c *Chip) AttachFaults(f FaultModel) {
	c.faults = f
	c.gen++
}

// New instantiates a biochip, sampling per-MC degradation constants and
// placing hard faults according to the configuration. All randomness comes
// from src.
func New(cfg Config, src *randx.Source) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := newChip(cfg.W, cfg.H, cfg.HealthBits)
	paramSrc := src.Split("params")
	for i := range c.mcs {
		c.mcs[i].Params = cfg.Normal.Sample(paramSrc)
	}
	if cfg.Faults.Mode != degrade.FaultNone {
		faultSrc := src.Split("faults")
		faulty := cfg.Faulty
		if faulty == (degrade.ParamRange{}) {
			faulty = cfg.Normal
		}
		for _, idx := range cfg.Faults.PlaceFaults(cfg.W, cfg.H, faultSrc) {
			c.mcs[idx].Params = faulty.Sample(paramSrc)
			c.mcs[idx].FailAt = faultSrc.IntRange(cfg.Faults.FailAfterLo, cfg.Faults.FailAfterHi)
		}
	}
	c.latchAll()
	return c, nil
}

// W returns the chip width (number of columns).
func (c *Chip) W() int { return c.w }

// H returns the chip height (number of rows).
func (c *Chip) H() int { return c.h }

// HealthBits returns b.
func (c *Chip) HealthBits() int { return c.bits }

// Bounds returns the full chip rectangle ⟦1,W⟧×⟦1,H⟧.
func (c *Chip) Bounds() geom.Rect { return geom.Rect{XA: 1, YA: 1, XB: c.w, YB: c.h} }

// Contains reports whether (x, y) is on-chip.
func (c *Chip) Contains(x, y int) bool {
	return 1 <= x && x <= c.w && 1 <= y && y <= c.h
}

func (c *Chip) index(x, y int) int { return (y-1)*c.w + (x - 1) }

// MC returns a copy of the microelectrode cell at (x, y), and false
// off-chip. It is a copy so that no caller can change an MC's state behind
// its latched health code.
func (c *Chip) MC(x, y int) (degrade.MC, bool) {
	if !c.Contains(x, y) {
		return degrade.MC{}, false
	}
	return c.mcs[c.index(x, y)], true
}

// Actuations returns the actuation counter n of the MC at (x, y).
func (c *Chip) Actuations(x, y int) int {
	if !c.Contains(x, y) {
		return 0
	}
	return c.mcs[c.index(x, y)].N
}

// Degradation returns the hidden degradation level D at (x, y); off-chip
// cells report 0 (no EWOD force beyond the array edge). An attached fault
// model perturbs the level (stuck cells, transient dropouts).
func (c *Chip) Degradation(x, y int) float64 {
	if !c.Contains(x, y) {
		return 0
	}
	mc := &c.mcs[c.index(x, y)]
	d := mc.Degradation()
	if c.faults != nil {
		d = c.faults.PhysicalDegradation(x, y, mc.N, d)
	}
	return d
}

// Force returns the relative EWOD force F̄ = D² at (x, y), 0 off-chip.
func (c *Chip) Force(x, y int) float64 {
	d := c.Degradation(x, y)
	return d * d
}

// Health returns the observed b-bit health code at (x, y), 0 off-chip: the
// latched fault-free code, which an attached fault model perturbs on read
// (sensed stuck cells, flipped or stale sensor codes).
//
//meda:hotpath
func (c *Chip) Health(x, y int) int {
	if !c.Contains(x, y) {
		return 0
	}
	i := c.index(x, y)
	h := int(c.codes[i])
	if c.faults != nil {
		h = c.faults.SensedHealth(x, y, c.mcs[i].N, h, c.bits)
	}
	return h
}

// TrueForceField is the simulator's force field, computed from the hidden
// degradation matrix D (Sec. V-C: "for simulation, the same model is used,
// except that the health matrix H is substituted with the degradation
// matrix D").
func (c *Chip) TrueForceField() action.ForceField {
	return func(x, y int) float64 { return c.Force(x, y) }
}

// ObservedForceField is the controller-visible force field: the b-bit health
// code is de-quantized to a degradation estimate D̂ and squared. This is the
// field the synthesis MDP is built from.
func (c *Chip) ObservedForceField() action.ForceField {
	top := len(c.force) - 1
	return func(x, y int) float64 {
		if !c.Contains(x, y) {
			return 0
		}
		// A fault overlay may sense any code; DegradationFromHealth
		// saturates codes outside [0, 2^b−1] to the end codes.
		h := min(max(c.Health(x, y), 0), top)
		return c.force[h]
	}
}

// Actuate applies one operational cycle's actuation pattern: every MC inside
// each rectangle is actuated once (charged and discharged), advancing its
// degradation and relatching its health code. Rectangles are clipped to the
// chip; overlapping rectangles actuate a cell only once per cycle.
//
// The health generation moves when a latched code changes, and on every call
// while a fault model is attached (a sensed code then depends on the
// actuation count).
//
//meda:hotpath
func (c *Chip) Actuate(patterns ...geom.Rect) {
	changed := c.faults != nil
	for k, p := range patterns {
		r, ok := p.Intersect(c.Bounds())
		if !ok {
			continue
		}
		for y := r.YA; y <= r.YB; y++ {
			base := (y - 1) * c.w
			for x := r.XA; x <= r.XB; x++ {
				if coveredBefore(patterns[:k], x, y) {
					continue
				}
				i := base + x - 1
				mc := &c.mcs[i]
				mc.Actuate()
				if mc.N >= int(c.relatch[i]) {
					code := uint8(mc.Health(c.bits))
					changed = changed || code != c.codes[i]
					c.codes[i] = code
					c.relatch[i] = nextDrop(mc, int(code), c.bits)
				}
				assertLatched(mc, c.codes[i], c.bits)
			}
		}
	}
	if changed {
		c.gen++
	}
}

// nextDrop returns the actuation count at which mc's latched code h, valid at
// its current count mc.N, has to be recomputed: the first n > mc.N whose code
// ⌊2^b·τ^(n/c)⌋ falls below h, or FailAt if that comes first, or MaxInt32
// when the code can no longer change. Eq. 3's inverse gives the estimate;
// the same Params.Health calls that compute the code then settle the exact
// count, so the latched codes stay bit-identical to MC.Health.
func nextDrop(mc *degrade.MC, h, bits int) int32 {
	if h == 0 || mc.Failed() {
		return math.MaxInt32
	}
	limit := math.MaxInt32
	if mc.FailAt > 0 {
		limit = min(limit, mc.FailAt)
	}
	n := limit
	if est := mc.Params.ActuationsToDegradation(float64(h) / float64(int(1)<<uint(bits))); est < float64(limit) {
		n = max(int(math.Ceil(est)), mc.N+1)
	}
	for n > mc.N+1 && mc.Params.Health(n-1, bits) < h {
		n--
	}
	for n < limit && mc.Params.Health(n, bits) >= h {
		n++
	}
	return int32(n)
}

// coveredBefore reports whether any of patterns contains (x, y).
func coveredBefore(patterns []geom.Rect, x, y int) bool {
	for _, p := range patterns {
		if p.Contains(geom.Cell{X: x, Y: y}) {
			return true
		}
	}
	return false
}

// TotalActuations returns Σ n over all MCs, the chip's cumulative wear.
func (c *Chip) TotalActuations() int {
	total := 0
	for i := range c.mcs {
		total += c.mcs[i].N
	}
	return total
}

// HealthMatrix returns a copy of the observed health matrix H as rows[y-1][x-1].
func (c *Chip) HealthMatrix() [][]int {
	out := make([][]int, c.h)
	for y := 1; y <= c.h; y++ {
		row := make([]int, c.w)
		for x := 1; x <= c.w; x++ {
			row[x-1] = c.Health(x, y)
		}
		out[y-1] = row
	}
	return out
}

// DegradationMatrix returns a copy of the hidden degradation matrix D.
func (c *Chip) DegradationMatrix() [][]float64 {
	out := make([][]float64, c.h)
	for y := 1; y <= c.h; y++ {
		row := make([]float64, c.w)
		for x := 1; x <= c.w; x++ {
			row[x-1] = c.Degradation(x, y)
		}
		out[y-1] = row
	}
	return out
}

// HealthHash returns a hash of the observed health codes within region,
// used by the hybrid scheduler to detect health changes that require
// re-synthesis (Alg. 3). The region is clipped to the chip. It is 64-bit
// FNV-1a over one byte per cell, row by row: the golden traces and the
// strategy-cache keys pin these bits.
//
//meda:hotpath
func (c *Chip) HealthHash(region geom.Rect) uint64 {
	h := uint64(fnvOffset)
	r, ok := region.Intersect(c.Bounds())
	if !ok {
		return h
	}
	for y := r.YA; y <= r.YB; y++ {
		base := (y - 1) * c.w
		for x := r.XA; x <= r.XB; x++ {
			i := base + x - 1
			code := int(c.codes[i])
			if c.faults != nil {
				code = c.faults.SensedHealth(x, y, c.mcs[i].N, code, c.bits)
			}
			h = (h ^ uint64(byte(code))) * fnvPrime
		}
	}
	return h
}

// 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HealthStamp returns the chip's health generation. Every event that may
// change a sensed code anywhere on the chip moves it, so if HealthStamp has
// not moved, no HealthHash has either. Stamps are comparable only between
// reads of the same chip.
func (c *Chip) HealthStamp() uint64 { return c.gen }

// UniformHealth reports whether every observed health code within region
// (clipped to the chip) is the same, and if so which code. A uniform window
// is the precondition for D4 strategy canonicalization: only over a
// constant force field are a job and its rotated/reflected image guaranteed
// equivalent. An empty region is vacuously uniform at full health.
func (c *Chip) UniformHealth(region geom.Rect) (int, bool) {
	r, ok := region.Intersect(c.Bounds())
	if !ok {
		return 1<<uint(c.bits) - 1, true
	}
	code := c.Health(r.XA, r.YA)
	for y := r.YA; y <= r.YB; y++ {
		for x := r.XA; x <= r.XB; x++ {
			if c.Health(x, y) != code {
				return 0, false
			}
		}
	}
	return code, true
}
