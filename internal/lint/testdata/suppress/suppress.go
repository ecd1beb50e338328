// Package suppress is the driver-level fixture for //lint:ignore
// directives: one well-formed suppression, one without a reason, one naming
// an unknown analyzer, and one suppressing nothing.
package suppress

func suppressed(a, b float64) bool {
	//lint:ignore floatcmp fixture exercises an accepted raw comparison
	return a == b
}

func noReason(a, b float64) bool {
	//lint:ignore floatcmp
	return a == b
}

func unknownAnalyzer(a, b float64) bool {
	//lint:ignore nosuchcheck the analyzer name is misspelled
	return a == b
}

func stale() {
	//lint:ignore floatcmp nothing on this line ever fires
	_ = 0
}
