package circuit

import (
	"testing"
	"time"
)

func TestCycleTiming(t *testing.T) {
	tm := DefaultCycleTiming()
	n := 60 * 30
	d := tm.CycleDuration(n)
	// Scan of 3·1800 bits at 10 MHz = 540 µs; plus 100 ms actuation.
	if d < 100*time.Millisecond || d > 102*time.Millisecond {
		t.Errorf("cycle duration = %v, want ≈100.55 ms", d)
	}
	// Time-to-result scales linearly in cycles.
	if tm.TimeToResult(10, n) != 10*d {
		t.Error("TimeToResult must be cycles × duration")
	}
	// A 300-cycle serial dilution ≈ 30 s of wall clock: sane for a
	// point-of-care assay.
	ttr := tm.TimeToResult(300, n)
	if ttr < 25*time.Second || ttr > 45*time.Second {
		t.Errorf("300-cycle time-to-result = %v, implausible", ttr)
	}
}
