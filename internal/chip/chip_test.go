package chip

import (
	"math"
	"testing"

	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/randx"
)

func rect(xa, ya, xb, yb int) geom.Rect { return geom.Rect{XA: xa, YA: ya, XB: xb, YB: yb} }

func newTestChip(t *testing.T, cfg Config, seed uint64) *Chip {
	t.Helper()
	c, err := New(cfg, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultConfig(t *testing.T) {
	cfg := Default()
	if cfg.W != 60 || cfg.H != 30 || cfg.HealthBits != 2 {
		t.Errorf("default config = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{W: 0, H: 10, HealthBits: 2, Normal: degrade.DefaultNormal},
		{W: 10, H: 0, HealthBits: 2, Normal: degrade.DefaultNormal},
		{W: 10, H: 10, HealthBits: 0, Normal: degrade.DefaultNormal},
		{W: 10, H: 10, HealthBits: 9, Normal: degrade.DefaultNormal},
		{W: 10, H: 10, HealthBits: 2},
		{W: 10, H: 10, HealthBits: 2, Normal: degrade.DefaultNormal,
			Faults: degrade.FaultPlan{Mode: degrade.FaultUniform, Fraction: 2}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, randx.New(1)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFreshChipFullyHealthy(t *testing.T) {
	c := newTestChip(t, Default(), 1)
	top := 1<<uint(c.HealthBits()) - 1
	for y := 1; y <= c.H(); y++ {
		for x := 1; x <= c.W(); x++ {
			if c.Degradation(x, y) != 1 {
				t.Fatalf("fresh D(%d,%d) = %v", x, y, c.Degradation(x, y))
			}
			if c.Health(x, y) != top {
				t.Fatalf("fresh H(%d,%d) = %d, want %d", x, y, c.Health(x, y), top)
			}
			if c.Force(x, y) != 1 {
				t.Fatalf("fresh F(%d,%d) = %v", x, y, c.Force(x, y))
			}
		}
	}
	if c.TotalActuations() != 0 {
		t.Error("fresh chip must have zero actuations")
	}
}

func TestOffChipReadsZero(t *testing.T) {
	c := newTestChip(t, Default(), 2)
	probes := []geom.Cell{{X: 0, Y: 5}, {X: 61, Y: 5}, {X: 5, Y: 0}, {X: 5, Y: 31}, {X: -1, Y: -1}}
	for _, p := range probes {
		if c.Contains(p.X, p.Y) {
			t.Errorf("Contains(%v) = true", p)
		}
		if c.Degradation(p.X, p.Y) != 0 || c.Force(p.X, p.Y) != 0 || c.Health(p.X, p.Y) != 0 {
			t.Errorf("off-chip cell %v must read zero", p)
		}
		if _, ok := c.MC(p.X, p.Y); ok {
			t.Errorf("off-chip MC(%v) must be nil", p)
		}
		if c.Actuations(p.X, p.Y) != 0 {
			t.Errorf("off-chip Actuations(%v) must be 0", p)
		}
	}
}

func TestActuateIncrementsCounters(t *testing.T) {
	c := newTestChip(t, Default(), 3)
	r := rect(3, 2, 7, 5)
	c.Actuate(r)
	for y := 1; y <= c.H(); y++ {
		for x := 1; x <= c.W(); x++ {
			want := 0
			if r.Contains(geom.Cell{X: x, Y: y}) {
				want = 1
			}
			if got := c.Actuations(x, y); got != want {
				t.Fatalf("n(%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
	if c.TotalActuations() != r.Area() {
		t.Errorf("total = %d, want %d", c.TotalActuations(), r.Area())
	}
}

func TestActuateOverlappingPatternsOncePerCycle(t *testing.T) {
	c := newTestChip(t, Default(), 4)
	a := rect(1, 1, 4, 4)
	b := rect(3, 3, 6, 6)
	c.Actuate(a, b)
	if got := c.Actuations(3, 3); got != 1 {
		t.Errorf("overlapped cell actuated %d times in one cycle, want 1", got)
	}
	if got := c.TotalActuations(); got != 16+16-4 {
		t.Errorf("total = %d, want 28", got)
	}
}

func TestActuateClipsToChip(t *testing.T) {
	c := newTestChip(t, Default(), 5)
	c.Actuate(rect(-5, -5, 2, 2)) // partially off-chip
	if got := c.Actuations(1, 1); got != 1 {
		t.Errorf("n(1,1) = %d", got)
	}
	if got := c.TotalActuations(); got != 4 {
		t.Errorf("total = %d, want 4 (clipped)", got)
	}
	c.Actuate(rect(100, 100, 120, 120)) // fully off-chip
	if got := c.TotalActuations(); got != 4 {
		t.Errorf("off-chip actuation changed total to %d", got)
	}
}

func TestDegradationDecreasesWithWear(t *testing.T) {
	c := newTestChip(t, Default(), 6)
	r := rect(10, 10, 12, 12)
	before := c.Degradation(11, 11)
	for i := 0; i < 400; i++ {
		c.Actuate(r)
	}
	after := c.Degradation(11, 11)
	if !(after < before) {
		t.Errorf("degradation did not decrease: %v -> %v", before, after)
	}
	if c.Health(11, 11) >= 1<<uint(c.HealthBits()) {
		t.Error("health out of range after wear")
	}
	// Unworn cells are untouched.
	if c.Degradation(30, 20) != 1 {
		t.Error("unworn cell degraded")
	}
}

func TestForceIsDegradationSquared(t *testing.T) {
	c := newTestChip(t, Default(), 7)
	r := rect(5, 5, 8, 8)
	for i := 0; i < 250; i++ {
		c.Actuate(r)
	}
	for y := 5; y <= 8; y++ {
		for x := 5; x <= 8; x++ {
			d := c.Degradation(x, y)
			if math.Abs(c.Force(x, y)-d*d) > 1e-12 {
				t.Fatalf("F != D² at (%d,%d)", x, y)
			}
		}
	}
}

func TestObservedForceFieldQuantized(t *testing.T) {
	c := newTestChip(t, Default(), 8)
	r := rect(5, 5, 8, 8)
	for i := 0; i < 300; i++ {
		c.Actuate(r)
	}
	obs := c.ObservedForceField()
	truth := c.TrueForceField()
	// The observed field must be a deterministic function of the health
	// code: cells with equal codes report equal observed force.
	type cellF struct{ o, tr float64 }
	byCode := map[int]float64{}
	for y := 5; y <= 8; y++ {
		for x := 5; x <= 8; x++ {
			code := c.Health(x, y)
			if prev, ok := byCode[code]; ok && prev != obs(x, y) {
				t.Fatalf("same code %d, different observed force", code)
			}
			byCode[code] = obs(x, y)
		}
	}
	_ = truth
	// Off-chip observed force is zero.
	if obs(0, 0) != 0 || obs(100, 100) != 0 {
		t.Error("off-chip observed force must be 0")
	}
	var _ cellF
}

func TestHealthHashDetectsChange(t *testing.T) {
	// Use a fast-degrading chip so a health code actually changes.
	cfg := Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.1, Tau2: 0.2, C1: 10, C2: 20}
	c := newTestChip(t, cfg, 9)
	region := rect(5, 5, 10, 10)
	h0 := c.HealthHash(region)
	if h1 := c.HealthHash(region); h1 != h0 {
		t.Fatal("hash must be deterministic")
	}
	for i := 0; i < 50; i++ {
		c.Actuate(rect(6, 6, 7, 7))
	}
	if c.HealthHash(region) == h0 {
		t.Error("hash did not change after health degradation")
	}
	// Wear outside the region does not affect its hash.
	h2 := c.HealthHash(region)
	for i := 0; i < 50; i++ {
		c.Actuate(rect(30, 20, 35, 25))
	}
	if c.HealthHash(region) != h2 {
		t.Error("hash changed from out-of-region wear")
	}
}

// TestUniformHealth: a fresh window is uniform at the top code, a worn
// cell breaks the uniformity of every window around it and a window inside
// the wear is uniform at code 0, and an empty or off-chip region is
// vacuously uniform at the top code.
func TestUniformHealth(t *testing.T) {
	cfg := Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.1, Tau2: 0.2, C1: 10, C2: 20}
	c := newTestChip(t, cfg, 10)
	if code, uniform := c.UniformHealth(rect(1, 1, 10, 10)); !uniform || code != 3 {
		t.Errorf("fresh UniformHealth = (%d, %v), want (3, true)", code, uniform)
	}
	for i := 0; i < 200; i++ {
		c.Actuate(rect(4, 4, 5, 5))
	}
	if code, uniform := c.UniformHealth(rect(1, 1, 10, 10)); uniform {
		t.Errorf("worn window reads uniform at %d", code)
	}
	if code, uniform := c.UniformHealth(rect(4, 4, 5, 5)); !uniform || code != 0 {
		t.Errorf("worn UniformHealth = (%d, %v), want (0, true)", code, uniform)
	}
	if code, uniform := c.UniformHealth(rect(200, 200, 210, 210)); !uniform || code != 3 {
		t.Errorf("off-chip UniformHealth = (%d, %v), want (3, true)", code, uniform)
	}
}

func TestHardFaultsInjected(t *testing.T) {
	cfg := Default()
	cfg.Faults = degrade.FaultPlan{
		Mode: degrade.FaultUniform, Fraction: 0.1, FailAfterLo: 1, FailAfterHi: 5,
	}
	c := newTestChip(t, cfg, 11)
	// Actuate the whole chip enough to trigger every hard fault.
	for i := 0; i < 5; i++ {
		c.Actuate(c.Bounds())
	}
	dead := 0
	for y := 1; y <= c.H(); y++ {
		for x := 1; x <= c.W(); x++ {
			if c.Degradation(x, y) == 0 {
				dead++
			}
		}
	}
	want := int(math.Round(0.1 * 60 * 30))
	if dead != want {
		t.Errorf("dead MCs = %d, want %d", dead, want)
	}
}

func TestMatricesShape(t *testing.T) {
	c := newTestChip(t, Default(), 12)
	hm := c.HealthMatrix()
	dm := c.DegradationMatrix()
	if len(hm) != 30 || len(hm[0]) != 60 {
		t.Errorf("health matrix shape %dx%d", len(hm), len(hm[0]))
	}
	if len(dm) != 30 || len(dm[0]) != 60 {
		t.Errorf("degradation matrix shape %dx%d", len(dm), len(dm[0]))
	}
	// Mutating the copies must not affect the chip.
	hm[0][0] = -99
	if c.Health(1, 1) == -99 {
		t.Error("HealthMatrix must return a copy")
	}
}

func TestNewChipDeterministic(t *testing.T) {
	cfg := Default()
	cfg.Faults = degrade.FaultPlan{Mode: degrade.FaultClustered, Fraction: 0.05, FailAfterLo: 5, FailAfterHi: 50}
	a := newTestChip(t, cfg, 77)
	b := newTestChip(t, cfg, 77)
	for y := 1; y <= a.H(); y++ {
		for x := 1; x <= a.W(); x++ {
			ma, _ := a.MC(x, y)
			mb, _ := b.MC(x, y)
			if ma.Params != mb.Params || ma.FailAt != mb.FailAt {
				t.Fatalf("chips from same seed differ at (%d,%d)", x, y)
			}
		}
	}
}

func TestBounds(t *testing.T) {
	c := newTestChip(t, Default(), 13)
	if c.Bounds() != rect(1, 1, 60, 30) {
		t.Errorf("Bounds = %v", c.Bounds())
	}
}

// flipModel is a FaultModel stub: it halves physical degradation everywhere
// and decrements every health reading, recording the actuation counts it was
// consulted with.
type flipModel struct {
	physCalls, senseCalls int
	lastN                 int
}

func (m *flipModel) PhysicalDegradation(x, y, n int, d float64) float64 {
	m.physCalls++
	m.lastN = n
	return d / 2
}

func (m *flipModel) SensedHealth(x, y, n, h, bits int) int {
	m.senseCalls++
	if h > 0 {
		return h - 1
	}
	return h
}

// TestAttachFaultsOverlaysReads: an attached fault model perturbs both
// Degradation (and therefore Force and TrueForceField) and Health (and
// therefore HealthHash, UniformHealth, ObservedForceField); detaching restores
// fault-free reads.
func TestAttachFaultsOverlaysReads(t *testing.T) {
	c := newTestChip(t, Default(), 5)
	cleanD := c.Degradation(10, 10)
	cleanH := c.Health(10, 10)
	cleanHash := c.HealthHash(c.Bounds())
	m := &flipModel{}
	c.AttachFaults(m)
	if got := c.Degradation(10, 10); math.Abs(got-cleanD/2) > 1e-12 {
		t.Errorf("faulted degradation = %v, want %v", got, cleanD/2)
	}
	if got := c.Force(10, 10); math.Abs(got-(cleanD/2)*(cleanD/2)) > 1e-12 {
		t.Errorf("faulted force = %v", got)
	}
	if got := c.Health(10, 10); got != cleanH-1 {
		t.Errorf("faulted health = %d, want %d", got, cleanH-1)
	}
	if c.HealthHash(c.Bounds()) == cleanHash {
		t.Error("health hash unchanged under a health-perturbing fault model")
	}
	if code, uniform := c.UniformHealth(c.Bounds()); !uniform || code != cleanH-1 {
		t.Errorf("faulted UniformHealth = (%d, %v), want (%d, true)", code, uniform, cleanH-1)
	}
	if m.physCalls == 0 || m.senseCalls == 0 {
		t.Error("fault model never consulted")
	}
	c.AttachFaults(nil)
	if c.Degradation(10, 10) != cleanD || c.Health(10, 10) != cleanH {
		t.Error("detaching did not restore fault-free reads")
	}
	if c.HealthHash(c.Bounds()) != cleanHash {
		t.Error("detaching did not restore the health hash")
	}
}

// TestFaultModelSeesActuationCount: the overlay receives the cell's current
// actuation count, which epoch-bucketed sensor faults depend on.
func TestFaultModelSeesActuationCount(t *testing.T) {
	c := newTestChip(t, Default(), 5)
	m := &flipModel{}
	c.AttachFaults(m)
	for i := 0; i < 7; i++ {
		c.Actuate(rect(3, 3, 3, 3))
	}
	c.Degradation(3, 3)
	if m.lastN != 7 {
		t.Errorf("fault model saw n=%d, want 7", m.lastN)
	}
}
