package degrade

import (
	"math"
	"testing"
	"testing/quick"

	"meda/internal/randx"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{Tau: 0.7, C: 350}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{{Tau: 0, C: 100}, {Tau: 1.5, C: 100}, {Tau: 0.5, C: 0}, {Tau: 0.5, C: -3}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params %+v accepted", p)
		}
	}
}

func TestDegradationEndpoints(t *testing.T) {
	p := Params{Tau: 0.6, C: 300}
	if d := p.Degradation(0); d != 1 {
		t.Errorf("D(0) = %v, want 1", d)
	}
	if d := p.Degradation(300); math.Abs(d-0.6) > 1e-12 {
		t.Errorf("D(c) = %v, want τ = 0.6", d)
	}
	if d := p.Degradation(600); math.Abs(d-0.36) > 1e-12 {
		t.Errorf("D(2c) = %v, want τ² = 0.36", d)
	}
}

func TestForceIsDegradationSquared(t *testing.T) {
	f := func(tau8, c8, n8 uint8) bool {
		p := Params{Tau: 0.1 + 0.89*float64(tau8)/255, C: 50 + float64(c8)*4}
		n := int(n8) * 10
		d := p.Degradation(n)
		return math.Abs(p.Force(n)-d*d) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegradationMonotone(t *testing.T) {
	p := Params{Tau: 0.5, C: 250}
	prev := 2.0
	for n := 0; n <= 2000; n += 50 {
		d := p.Degradation(n)
		if d > prev {
			t.Fatalf("D not non-increasing at n=%d: %v > %v", n, d, prev)
		}
		if d < 0 || d > 1 {
			t.Fatalf("D(%d) = %v out of [0,1]", n, d)
		}
		prev = d
	}
}

func TestHealthQuantization(t *testing.T) {
	cases := []struct {
		d    float64
		b    int
		want int
	}{
		{1.0, 2, 3},   // fully healthy saturates at 2^b−1 ("11")
		{0.99, 2, 3},  // still top code
		{0.74, 2, 2},  // ⌊4·0.74⌋ = 2
		{0.5, 2, 2},   // boundary: ⌊2.0⌋ = 2
		{0.49, 2, 1},  // ⌊1.96⌋ = 1
		{0.2, 2, 0},   // ⌊0.8⌋ = 0
		{0.0, 2, 0},   // fully degraded, "00"
		{1.0, 1, 1},   // 1-bit sensing
		{0.4, 1, 0},   //
		{0.9, 4, 14},  // ⌊16·0.9⌋ = 14
		{0.95, 4, 15}, //
	}
	for _, c := range cases {
		if got := QuantizeHealth(c.d, c.b); got != c.want {
			t.Errorf("QuantizeHealth(%v, %d) = %d, want %d", c.d, c.b, got, c.want)
		}
	}
}

func TestHealthInRangeProperty(t *testing.T) {
	f := func(d float64, b8 uint8) bool {
		if math.IsNaN(d) {
			return true
		}
		b := int(b8%4) + 1
		h := QuantizeHealth(math.Mod(math.Abs(d), 1.0), b)
		return h >= 0 && h < 1<<uint(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHealthMonotoneInDegradation(t *testing.T) {
	for b := 1; b <= 4; b++ {
		prev := -1
		for d := 0.0; d <= 1.0; d += 0.001 {
			h := QuantizeHealth(d, b)
			if h < prev {
				t.Fatalf("health not monotone at d=%v b=%d", d, b)
			}
			prev = h
		}
	}
}

func TestDegradationFromHealthRoundTrip(t *testing.T) {
	// The estimate must fall in the quantization cell that produced it
	// (except the saturated endpoints, which are pinned to 0 and 1).
	for b := 1; b <= 4; b++ {
		levels := 1 << uint(b)
		for h := 1; h < levels-1; h++ {
			est := DegradationFromHealth(h, b)
			if QuantizeHealth(est, b) != h {
				t.Errorf("b=%d h=%d: estimate %v quantizes to %d", b, h, est, QuantizeHealth(est, b))
			}
		}
		// The all-zeros code estimates the midpoint of [0, 1/2^b), not
		// zero: routing keeps a last-resort option through regions the
		// sensing cannot distinguish from barely-alive.
		if got := DegradationFromHealth(0, b); got != 0.5/float64(levels) {
			t.Errorf("b=%d: zero health estimate = %v, want %v", b, got, 0.5/float64(levels))
		}
		if DegradationFromHealth(levels-1, b) != 1 {
			t.Errorf("b=%d: top health must estimate 1", b)
		}
	}
}

func TestActuationsToDegradation(t *testing.T) {
	p := Params{Tau: 0.6, C: 300}
	n := p.ActuationsToDegradation(0.6)
	if math.Abs(n-300) > 1e-9 {
		t.Errorf("n(τ) = %v, want c = 300", n)
	}
	if p.ActuationsToDegradation(1) != 0 {
		t.Error("n(1) must be 0")
	}
	if !math.IsInf(p.ActuationsToDegradation(0), 1) {
		t.Error("n(0) must be +Inf")
	}
	if !math.IsInf((Params{Tau: 1, C: 100}).ActuationsToDegradation(0.5), 1) {
		t.Error("τ=1 never degrades")
	}
}

func TestMCLifecycle(t *testing.T) {
	m := MC{Params: Params{Tau: 0.5, C: 100}}
	if m.Degradation() != 1 || m.Health(2) != 3 {
		t.Error("fresh MC must be fully healthy")
	}
	for i := 0; i < 100; i++ {
		m.Actuate()
	}
	if m.N != 100 {
		t.Errorf("N = %d, want 100", m.N)
	}
	if math.Abs(m.Degradation()-0.5) > 1e-12 {
		t.Errorf("D = %v, want 0.5", m.Degradation())
	}
}

func TestMCHardFault(t *testing.T) {
	m := MC{Params: Params{Tau: 0.9, C: 500}, FailAt: 10}
	for i := 0; i < 9; i++ {
		m.Actuate()
	}
	if m.Failed() {
		t.Error("MC failed before threshold")
	}
	if m.Degradation() == 0 {
		t.Error("MC degradation should be positive before failure")
	}
	m.Actuate()
	if !m.Failed() {
		t.Error("MC must fail at threshold")
	}
	if m.Degradation() != 0 || m.Health(2) != 0 {
		t.Error("failed MC must read fully degraded")
	}
}

func TestParamRangeSample(t *testing.T) {
	src := randx.New(3)
	r := DefaultNormal
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p := r.Sample(src)
		if p.Tau < 0.5 || p.Tau >= 0.9 || p.C < 200 || p.C >= 500 {
			t.Fatalf("sample out of range: %+v", p)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParamRangeValidate(t *testing.T) {
	bad := []ParamRange{
		{Tau1: 0, Tau2: 0.5, C1: 1, C2: 2},
		{Tau1: 0.9, Tau2: 0.5, C1: 1, C2: 2},
		{Tau1: 0.5, Tau2: 1.5, C1: 1, C2: 2},
		{Tau1: 0.5, Tau2: 0.9, C1: 5, C2: 2},
		{Tau1: 0.5, Tau2: 0.9, C1: 0, C2: 2},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("invalid range %+v accepted", r)
		}
	}
}

func TestFaultPlanNone(t *testing.T) {
	plan := FaultPlan{Mode: FaultNone}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := plan.PlaceFaults(60, 30, randx.New(1)); got != nil {
		t.Errorf("FaultNone placed %d faults", len(got))
	}
}

func TestFaultPlanUniformCount(t *testing.T) {
	plan := FaultPlan{Mode: FaultUniform, Fraction: 0.05, FailAfterLo: 10, FailAfterHi: 100}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	faults := plan.PlaceFaults(60, 30, randx.New(2))
	want := int(math.Round(0.05 * 60 * 30))
	if len(faults) != want {
		t.Errorf("placed %d faults, want %d", len(faults), want)
	}
	seen := map[int]bool{}
	for _, idx := range faults {
		if idx < 0 || idx >= 60*30 {
			t.Fatalf("fault index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate fault index %d", idx)
		}
		seen[idx] = true
	}
}

func TestFaultPlanClusteredShape(t *testing.T) {
	const w, h = 60, 30
	plan := FaultPlan{Mode: FaultClustered, Fraction: 0.04, FailAfterLo: 10, FailAfterHi: 100}
	faults := plan.PlaceFaults(w, h, randx.New(7))
	if len(faults)%1 != 0 || len(faults) == 0 {
		t.Fatal("no faults placed")
	}
	set := map[int]bool{}
	for _, idx := range faults {
		set[idx] = true
	}
	// Every faulty MC must have at least one faulty neighbor in both axes
	// direction-combined sense: it belongs to a 2×2 block. Check that each
	// fault participates in at least one fully-faulty 2×2 block.
	inBlock := func(idx int) bool {
		x, y := idx%w, idx/w
		for _, dy := range []int{-1, 0} {
			for _, dx := range []int{-1, 0} {
				bx, by := x+dx, y+dy
				if bx < 0 || by < 0 || bx+1 >= w || by+1 >= h {
					continue
				}
				if set[by*w+bx] && set[by*w+bx+1] && set[(by+1)*w+bx] && set[(by+1)*w+bx+1] {
					return true
				}
			}
		}
		return false
	}
	for _, idx := range faults {
		if !inBlock(idx) {
			t.Errorf("fault at %d not part of a 2×2 cluster", idx)
		}
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{Mode: FaultUniform, Fraction: -0.1, FailAfterLo: 1, FailAfterHi: 2},
		{Mode: FaultUniform, Fraction: 1.1, FailAfterLo: 1, FailAfterHi: 2},
		{Mode: FaultUniform, Fraction: 0.5, FailAfterLo: 0, FailAfterHi: 2},
		{Mode: FaultClustered, Fraction: 0.5, FailAfterLo: 5, FailAfterHi: 2},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid plan %+v accepted", p)
		}
	}
}

func TestFaultModeString(t *testing.T) {
	if FaultNone.String() != "none" || FaultUniform.String() != "uniform" || FaultClustered.String() != "clustered" {
		t.Error("FaultMode names wrong")
	}
	if FaultMode(99).String() != "unknown" {
		t.Error("unknown mode should stringify as unknown")
	}
}
