//go:build medacheck

package chip

import (
	"fmt"

	"meda/internal/degrade"
)

// assertLatched recomputes the health code of a just-actuated cell when built
// with the medacheck tag and panics if the latched code differs: a next-drop
// count that skipped a quantization drop would otherwise hand the
// synthesizer a stale health matrix.
func assertLatched(mc *degrade.MC, code uint8, bits int) {
	if want := mc.Health(bits); int(code) != want {
		panic(fmt.Sprintf("chip: medacheck: latched code %d at n=%d, MC.Health gives %d (params %+v, FailAt %d)",
			code, mc.N, want, mc.Params, mc.FailAt))
	}
}
