// Package fault is the deterministic, seed-driven fault-injection subsystem:
// the executable form of the paper's Player ② adversary. Where
// internal/degrade models the *smooth* charge-trapping decay of Sec. IV and
// the scheduled hard faults of Sec. VII-C, this package injects the abrupt,
// unscheduled failures the fault-tolerance literature treats as first-class
// — stuck microelectrodes, transient actuation dropouts, sensor misreads,
// and control-plane failures — so the scheduler's graceful-degradation
// ladder (sched.Fallback, sim divergence detection) can be exercised and
// regression-tested.
//
// Faults are injected at three levels:
//
//   - actuation: stuck-off / stuck-on microelectrodes (activated once a
//     cell's actuation count crosses a per-cell threshold) and transient
//     per-actuation force dropouts, perturbing the chip's *physical* force
//     production;
//   - sensing: flipped or stale 2-bit health readings (the paper's MC
//     sensor, Table I), perturbing only the *observed* health matrix H so
//     the scheduler plans against a wrong view of the chip;
//   - control plane: injected synthesis timeouts and strategy-cache
//     poisoning inside the scheduler (consumed through sched's
//     FaultInjector interface).
//
// Everything is a pure function of (seed, fault kind, cell/key, counter):
// no shared RNG stream is consumed, so fault decisions are independent of
// goroutine scheduling and call order. The same seed, chip and bioassay
// therefore produce byte-identical simulation traces across runs — the
// property sim's fault determinism regression test asserts.
package fault

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Kinds is a bitmask selecting fault classes for Mixed plans.
type Kinds uint8

const (
	// Actuation selects stuck-off/stuck-on cells and transient dropouts.
	Actuation Kinds = 1 << iota
	// Sensing selects flipped and stale health readings.
	Sensing
	// Control selects synthesis timeouts and cache poisoning.
	Control

	// AllKinds selects every fault class.
	AllKinds = Actuation | Sensing | Control
)

// String renders the bitmask as a comma list ("act,sense,ctl").
func (k Kinds) String() string {
	if k == 0 {
		return "none"
	}
	var parts []string
	if k&Actuation != 0 {
		parts = append(parts, "act")
	}
	if k&Sensing != 0 {
		parts = append(parts, "sense")
	}
	if k&Control != 0 {
		parts = append(parts, "ctl")
	}
	return strings.Join(parts, ",")
}

// ParseKinds parses a comma list of fault-class names. Accepted names:
// act/actuation, sense/sensing, ctl/control, all, none.
func ParseKinds(s string) (Kinds, error) {
	var k Kinds
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "act", "actuation":
			k |= Actuation
		case "sense", "sensing":
			k |= Sensing
		case "ctl", "control":
			k |= Control
		case "all":
			k |= AllKinds
		case "none", "":
		default:
			return 0, fmt.Errorf("fault: unknown fault kind %q (want act, sense, ctl, all)", part)
		}
	}
	return k, nil
}

// Plan configures one fault-injection run. All rates are probabilities in
// [0, 1]; the zero value injects nothing (Enabled reports false).
type Plan struct {
	// Seed drives every fault decision. Two injectors with the same seed
	// and rates make identical decisions.
	Seed uint64

	// StuckOff / StuckOn are the per-cell probabilities that a
	// microelectrode is latently stuck: once its actuation count crosses a
	// per-cell threshold drawn from [StuckAfterLo, StuckAfterHi], its
	// physical degradation pins to 0 (off) or 1 (on). The MC health sensor
	// observes stuck cells (it senses actual capacitance), so a health-aware
	// router can route around them once they trigger.
	StuckOff, StuckOn float64
	// StuckAfterLo/Hi bound the per-cell stuck-activation threshold in
	// actuations; zero values default to [10, 150].
	StuckAfterLo, StuckAfterHi int

	// Transient is the per-actuation probability that a cell produces no
	// EWOD force for one actuation count — a dropout invisible to the
	// health sensor.
	Transient float64

	// SensorFlip / SensorStale are per-cell-per-epoch probabilities of a
	// health misread: flip XORs the b-bit code with a nonzero mask; stale
	// pins the reading at fully healthy regardless of actual wear (the
	// insidious case: the scheduler plans through a region it believes is
	// fine). A misread persists for SensorEpoch actuations of the cell so
	// the observed matrix does not flicker every cycle.
	SensorFlip, SensorStale float64
	// SensorEpoch is the misread persistence window in actuations; zero
	// defaults to 64.
	SensorEpoch int

	// SynthTimeout is the per-attempt probability that an online strategy
	// synthesis is failed with sched.ErrInjectedTimeout. Keyed by (job key,
	// attempt), so a bounded retry usually succeeds.
	SynthTimeout float64
	// CachePoison is the per-key probability that a synthesized strategy is
	// discarded instead of stored (a poisoned cache line that fails its
	// integrity check), forcing re-synthesis on the next request.
	CachePoison float64
}

// Enabled reports whether the plan injects anything.
func (p Plan) Enabled() bool {
	return p.StuckOff > 0 || p.StuckOn > 0 || p.Transient > 0 ||
		p.SensorFlip > 0 || p.SensorStale > 0 ||
		p.SynthTimeout > 0 || p.CachePoison > 0
}

// Validate checks every rate and window.
func (p Plan) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"StuckOff", p.StuckOff}, {"StuckOn", p.StuckOn},
		{"Transient", p.Transient},
		{"SensorFlip", p.SensorFlip}, {"SensorStale", p.SensorStale},
		{"SynthTimeout", p.SynthTimeout}, {"CachePoison", p.CachePoison},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s rate %v out of [0,1]", r.name, r.v)
		}
	}
	if p.StuckOff+p.StuckOn > 1 {
		return fmt.Errorf("fault: StuckOff+StuckOn = %v exceeds 1", p.StuckOff+p.StuckOn)
	}
	if p.StuckAfterLo < 0 || p.StuckAfterHi < p.StuckAfterLo {
		return fmt.Errorf("fault: invalid StuckAfter window [%d,%d]", p.StuckAfterLo, p.StuckAfterHi)
	}
	if p.SensorEpoch < 0 {
		return fmt.Errorf("fault: negative SensorEpoch %d", p.SensorEpoch)
	}
	return nil
}

// withDefaults fills the zero-valued structural knobs.
func (p Plan) withDefaults() Plan {
	if p.StuckAfterLo == 0 && p.StuckAfterHi == 0 {
		p.StuckAfterLo, p.StuckAfterHi = 10, 150
	}
	if p.SensorEpoch == 0 {
		p.SensorEpoch = 64
	}
	return p
}

// Mixed returns a plan that spreads an overall fault rate across the
// selected kinds — the configuration behind the -inject flags and the
// medafuzz trial mode. At rate 0.05 with AllKinds: 1% of cells stuck-off,
// 0.5% stuck-on, 0.5% transient dropout per actuation, 1% flipped and 1%
// stale sensor reads per cell-epoch, 5% synthesis timeouts and 5% cache
// poisoning.
func Mixed(seed uint64, rate float64, kinds Kinds) Plan {
	p := Plan{Seed: seed}
	if rate <= 0 {
		return p
	}
	if rate > 1 {
		rate = 1
	}
	if kinds&Actuation != 0 {
		p.StuckOff = rate / 5
		p.StuckOn = rate / 10
		p.Transient = rate / 10
	}
	if kinds&Sensing != 0 {
		p.SensorFlip = rate / 5
		p.SensorStale = rate / 5
	}
	if kinds&Control != 0 {
		p.SynthTimeout = rate
		p.CachePoison = rate
	}
	return p
}

// Hash-domain separators for the fault decision streams.
const (
	kindStuck uint8 = iota + 1
	kindStuckAt
	kindFlipHit
	kindFlipMask
	kindStaleHit
	kindTransient
	kindTimeout
	kindPoison
)

// stuck cell modes.
const (
	stuckNone int8 = iota
	stuckOff
	stuckOn
)

// stuckCell is the precomputed latent fault of one microelectrode.
type stuckCell struct {
	mode int8
	at   int32 // activation threshold in actuations
	// seen flips to 1 (atomically) the first time the activated fault is
	// observed, so the telemetry counter ticks once per cell.
	seen atomic.Uint32
}

// Injector makes every fault decision for one chip. It holds no mutable
// state beyond telemetry bookkeeping, so it is safe for concurrent use by
// the simulator and concurrent Route calls.
type Injector struct {
	plan  Plan
	w, h  int
	cells []stuckCell
}

// New builds the injector for a w×h chip, precomputing the latent stuck-cell
// set from the plan seed. The plan should be Validated first; rates are used
// as given.
func New(p Plan, w, h int) *Injector {
	p = p.withDefaults()
	inj := &Injector{plan: p, w: w, h: h, cells: make([]stuckCell, w*h)}
	if p.StuckOff > 0 || p.StuckOn > 0 {
		for y := 1; y <= h; y++ {
			for x := 1; x <= w; x++ {
				c := &inj.cells[(y-1)*w+(x-1)]
				u := inj.unit(kindStuck, uint64(x), uint64(y), 0)
				switch {
				case u < p.StuckOff:
					c.mode = stuckOff
				case u < p.StuckOff+p.StuckOn:
					c.mode = stuckOn
				default:
					continue
				}
				span := p.StuckAfterHi - p.StuckAfterLo + 1
				at := p.StuckAfterLo + int(inj.mix(kindStuckAt, uint64(x), uint64(y), 0)%uint64(span))
				c.at = int32(at)
			}
		}
	}
	return inj
}

// Plan returns the plan the injector was built from (with defaults filled).
func (i *Injector) Plan() Plan { return i.plan }

// StuckCells returns how many cells are latently stuck (off, on) — a test
// and reporting helper.
func (i *Injector) StuckCells() (off, on int) {
	for idx := range i.cells {
		switch i.cells[idx].mode {
		case stuckOff:
			off++
		case stuckOn:
			on++
		}
	}
	return off, on
}

// mix hashes the fault-decision coordinates into 64 well-mixed bits using
// the splitmix64 finalizer. Allocation-free: this sits on the chip's health
// and force read paths.
func (i *Injector) mix(kind uint8, a, b, c uint64) uint64 {
	h := i.plan.Seed ^ (uint64(kind) * 0x9e3779b97f4a7c15)
	h = splitmix(h ^ a)
	h = splitmix(h ^ b)
	h = splitmix(h ^ c)
	return h
}

// unit maps the hashed coordinates to a uniform draw in [0, 1).
func (i *Injector) unit(kind uint8, a, b, c uint64) float64 {
	return float64(i.mix(kind, a, b, c)>>11) / (1 << 53)
}

func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// stuckAt returns the cell's active stuck mode at actuation count n, or
// stuckNone when the cell is healthy or the threshold has not triggered yet.
func (i *Injector) stuckAt(x, y, n int) int8 {
	if x < 1 || x > i.w || y < 1 || y > i.h {
		return stuckNone
	}
	c := &i.cells[(y-1)*i.w+(x-1)]
	if c.mode == stuckNone || int32(n) < c.at {
		return stuckNone
	}
	if c.seen.CompareAndSwap(0, 1) {
		if c.mode == stuckOff {
			telStuckOff.Inc()
		} else {
			telStuckOn.Inc()
		}
	}
	return c.mode
}

// PhysicalDegradation implements chip.FaultModel: it perturbs the effective
// degradation level driving EWOD force at actuation count n. Stuck-off pins
// the level at 0, stuck-on at 1; a transient dropout zeroes it for this
// actuation count only.
func (i *Injector) PhysicalDegradation(x, y, n int, d float64) float64 {
	switch i.stuckAt(x, y, n) {
	case stuckOff:
		return 0
	case stuckOn:
		return 1
	}
	if i.plan.Transient > 0 && i.unit(kindTransient, uint64(x), uint64(y), uint64(n)) < i.plan.Transient {
		telTransient.Inc()
		return 0
	}
	return d
}

// SensedHealth implements chip.FaultModel: it returns the health code the MC
// sensor reports at actuation count n, given the fault-free code h. Stuck
// cells are sensed truthfully (the sensor measures actual capacitance);
// flip/stale misreads then perturb the reading, each persisting for
// SensorEpoch actuations of the cell.
func (i *Injector) SensedHealth(x, y, n, h, bits int) int {
	top := 1<<uint(bits) - 1
	switch i.stuckAt(x, y, n) {
	case stuckOff:
		h = 0
	case stuckOn:
		h = top
	}
	if i.plan.SensorFlip == 0 && i.plan.SensorStale == 0 {
		return h
	}
	epoch := uint64(n / i.plan.SensorEpoch)
	if i.plan.SensorFlip > 0 && i.unit(kindFlipHit, uint64(x), uint64(y), epoch) < i.plan.SensorFlip {
		telFlip.Inc()
		mask := 1 + int(i.mix(kindFlipMask, uint64(x), uint64(y), epoch)%uint64(top))
		h ^= mask
		if h > top {
			h = top
		}
		if h < 0 {
			h = 0
		}
	}
	if i.plan.SensorStale > 0 && i.unit(kindStaleHit, uint64(x), uint64(y), epoch) < i.plan.SensorStale {
		telStale.Inc()
		h = top
	}
	return h
}

// SynthTimeout implements sched.FaultInjector: it reports whether the
// attempt-th synthesis for the keyed job should fail with an injected
// timeout. Independent draws per attempt let bounded retries succeed.
func (i *Injector) SynthTimeout(key uint64, attempt int) bool {
	if i.plan.SynthTimeout == 0 {
		return false
	}
	return i.unit(kindTimeout, key, uint64(attempt), 0) < i.plan.SynthTimeout
}

// CachePoison implements sched.FaultInjector: it reports whether a strategy
// store under the keyed cache line should be discarded. The decision is a
// function of the key alone, modeling a persistently corrupted line.
func (i *Injector) CachePoison(key uint64) bool {
	if i.plan.CachePoison == 0 {
		return false
	}
	return i.unit(kindPoison, key, 0, 0) < i.plan.CachePoison
}
