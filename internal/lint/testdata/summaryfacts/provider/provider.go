// Package provider is the upstream half of the interprocedural summary
// cross-package golden pair: the summary pass over this package exports
// FnSummary facts (channel parameter ops) that the consumer package's
// goroutineleak pass must resolve through the shared fact store.
package provider

// SendOn forwards v into ch: its summary marks parameter 0 as sent-on.
func SendOn(ch chan int, v int) { ch <- v }
