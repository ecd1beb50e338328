//go:build !medacheck

package chip

import "meda/internal/degrade"

// assertLatched is a no-op in regular builds; under the medacheck tag it
// recomputes an actuated cell's code and compares it with the latched one
// (assert_medacheck.go).
func assertLatched(*degrade.MC, uint8, int) {}
