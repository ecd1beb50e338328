// Package suppress is the driver-level fixture for //lint:ignore
// directives: one well-formed suppression, one without a reason, one naming
// an unknown analyzer, and one suppressing nothing.
package suppress

func suppressed() {
	ch := make(chan int)
	close(ch)
	//lint:ignore chanprotocol fixture exercises an accepted double close
	close(ch)
}

func noReason() {
	ch := make(chan int)
	close(ch)
	//lint:ignore chanprotocol
	close(ch)
}

func unknownAnalyzer() {
	ch := make(chan int)
	close(ch)
	//lint:ignore nosuchcheck the analyzer name is misspelled
	close(ch)
}

func stale() {
	//lint:ignore chanprotocol nothing on this line ever fires
	_ = 0
}
