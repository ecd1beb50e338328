package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTableIConstants(t *testing.T) {
	if CHealthy != 2.375e-15 || CPartial != 2.380e-15 || CDegraded != 2.385e-15 {
		t.Error("Table I capacitances wrong")
	}
	if MicroelectrodeAreaUM2 != 2500 {
		t.Error("microelectrode area must be 50×50 µm²")
	}
	if SiliconOilPermittivity != 19e-12 {
		t.Error("silicon-oil permittivity wrong")
	}
}

func TestCapacitanceOrdering(t *testing.T) {
	if !(Healthy.Capacitance() < PartiallyDegraded.Capacitance() &&
		PartiallyDegraded.Capacitance() < CompletelyDegraded.Capacitance()) {
		t.Error("degradation must increase capacitance")
	}
}

func TestVoltageDecay(t *testing.T) {
	c := CellFor(Healthy)
	if v := c.Voltage(0); v != VDD {
		t.Errorf("V(0) = %v, want VDD", v)
	}
	if v := c.Voltage(-1); v != VDD {
		t.Errorf("V(<0) = %v, want VDD", v)
	}
	rc := c.R * c.C
	if v := c.Voltage(rc); math.Abs(v-VDD/math.E) > 1e-9 {
		t.Errorf("V(RC) = %v, want VDD/e", v)
	}
	prev := VDD + 1
	for i := 0; i < 50; i++ {
		v := c.Voltage(float64(i) * 1e-7)
		if v >= prev {
			t.Fatal("discharge must be strictly decreasing")
		}
		prev = v
	}
}

func TestCrossingTimeFormula(t *testing.T) {
	c := CellFor(Healthy)
	tc := c.CrossingTime()
	// At the crossing time the voltage equals the threshold.
	if math.Abs(c.Voltage(tc)-c.Vth) > 1e-9 {
		t.Errorf("V(crossing) = %v, want %v", c.Voltage(tc), c.Vth)
	}
}

// TestFiveNanosecondSeparation checks the headline circuit-design result of
// Fig. 2: the crossing times of adjacent degradation classes are ≈5 ns
// apart, which is why the added DFF clock is asserted 5 ns later.
func TestFiveNanosecondSeparation(t *testing.T) {
	h := CellFor(Healthy).CrossingTime()
	p := CellFor(PartiallyDegraded).CrossingTime()
	d := CellFor(CompletelyDegraded).CrossingTime()
	sep1 := p - h
	sep2 := d - p
	for _, sep := range []float64{sep1, sep2} {
		if sep < 4e-9 || sep > 6e-9 {
			t.Errorf("class separation = %v s, want ≈5 ns", sep)
		}
	}
}

// TestTwoBitCodes verifies the paper's sensing contract: healthy "11",
// partially degraded "01", completely degraded "00".
func TestTwoBitCodes(t *testing.T) {
	tm := DefaultTiming()
	cases := []struct {
		class HealthClass
		code  string
	}{
		{Healthy, "11"},
		{PartiallyDegraded, "01"},
		{CompletelyDegraded, "00"},
	}
	for _, c := range cases {
		got := CellFor(c.class).Sense(tm)
		if got.Code() != c.code {
			t.Errorf("%v: code = %q, want %q", c.class, got.Code(), c.code)
		}
		if got.Class() != c.class {
			t.Errorf("%v: round-trip class = %v", c.class, got.Class())
		}
	}
}

// TestClassify runs the full sensing pipeline on the Table I capacitances.
func TestClassify(t *testing.T) {
	tm := DefaultTiming()
	for _, c := range []struct {
		capacitance float64
		want        HealthClass
	}{{CHealthy, Healthy}, {CPartial, PartiallyDegraded}, {CDegraded, CompletelyDegraded}} {
		if got := NewCell(c.capacitance).Sense(tm).Class(); got != c.want {
			t.Errorf("C = %v classified %v, want %v", c.capacitance, got, c.want)
		}
	}
}

func TestClassifyMonotoneProperty(t *testing.T) {
	// Any capacitance below healthy classifies healthy; any above degraded
	// classifies degraded; classification is monotone in capacitance.
	tm := DefaultTiming()
	f := func(u uint16) bool {
		c := 2.370e-15 + float64(u)/65535*0.020e-15 // 2.370..2.390 fF
		cls := NewCell(c).Sense(tm).Class()
		clsUp := NewCell(c + 1e-18).Sense(tm).Class()
		return clsUp >= cls
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddedDFFDelayIs5ns(t *testing.T) {
	tm := DefaultTiming()
	if math.Abs(tm.Added-tm.Original-5e-9) > 1e-15 {
		t.Errorf("added DFF delay = %v, want 5 ns", tm.Added-tm.Original)
	}
}

func TestHealthBitsMapping(t *testing.T) {
	if Healthy.HealthBits() != 3 || PartiallyDegraded.HealthBits() != 1 || CompletelyDegraded.HealthBits() != 0 {
		t.Error("HealthBits mapping wrong")
	}
}

func TestResultCode10IsConservative(t *testing.T) {
	r := Result{OriginalBit: 1, AddedBit: 0}
	if r.Class() != CompletelyDegraded {
		t.Error("impossible code 10 must classify conservatively")
	}
}

func TestHealthClassString(t *testing.T) {
	if Healthy.String() != "healthy" || PartiallyDegraded.String() != "partially-degraded" ||
		CompletelyDegraded.String() != "completely-degraded" || HealthClass(9).String() != "unknown" {
		t.Error("HealthClass names wrong")
	}
	if !math.IsNaN(HealthClass(9).Capacitance()) {
		t.Error("unknown class capacitance should be NaN")
	}
}
