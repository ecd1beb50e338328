// Package consumer is the downstream half of the interprocedural summary
// cross-package golden pair: its finding exists only when the driver
// analyzed provider first and its FnSummary facts crossed the package
// boundary.
package consumer

import "meda/internal/lint/testdata/summaryfacts/provider"

// Leak launches a goroutine whose send lives inside provider.SendOn.
func Leak() {
	ch := make(chan int)
	go provider.SendOn(ch, 1) // finding: send with no local receiver
}
