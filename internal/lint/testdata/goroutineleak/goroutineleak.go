// Package goroutineleak is the golden fixture for the goroutineleak
// analyzer: goroutines blocked forever on channels with no counterpart.
package goroutineleak

func reallySend(ch chan int) { ch <- 1 }

func sendDeep(ch chan int) { reallySend(ch) }

func drain(ch chan int) { <-ch }

// idle hands its channel only to itself: it neither uses it nor lets it
// escape.
func idle(ch chan int, n int) {
	if n > 0 {
		idle(ch, n-1)
	}
}

// LeakSend launches a sender nobody ever receives from.
func LeakSend() {
	ch := make(chan int)
	go func() { // want `goroutine sends on ch but the enclosing function never receives from it`
		ch <- 1
	}()
}

// LeakRecv launches a receiver nothing ever sends to or closes.
func LeakRecv() {
	ch := make(chan int)
	go func() { // want `goroutine receives on ch but nothing sends on or closes it`
		<-ch
	}()
}

// LeakDeep leaks through two call frames: the send happens inside
// reallySend, reached via sendDeep's summary.
func LeakDeep() {
	ch := make(chan int)
	go func() { // want `goroutine sends on ch but the enclosing function never receives from it`
		sendDeep(ch)
	}()
}

// LeakGoCall leaks through a direct `go fn(ch)` launch.
func LeakGoCall() {
	ch := make(chan int)
	go drain(ch) // want `goroutine receives on ch but nothing sends on or closes it`
}

// LeakPastRecursion leaks although the channel is handed to a recursive
// helper: the helper's summary shows it does nothing with the channel.
func LeakPastRecursion() {
	ch := make(chan int)
	go func() { // want `goroutine sends on ch but the enclosing function never receives from it`
		ch <- 1
	}()
	idle(ch, 3)
}

// BufferedOK: the buffer absorbs the send.
func BufferedOK() {
	ch := make(chan int, 1)
	go func() { ch <- 1 }()
}

// HandoffOK: the classic result handoff — the enclosing function receives.
func HandoffOK() int {
	ch := make(chan int)
	go func() { ch <- 42 }()
	return <-ch
}

// PairOK: a second goroutine is a legitimate counterpart.
func PairOK() {
	ch := make(chan int)
	done := make(chan struct{})
	go func() { ch <- 1 }()
	go func() {
		<-ch
		close(done)
	}()
	<-done
}

// GuardedOK: a select with a second arm is an escape hatch.
func GuardedOK(quit chan struct{}) {
	ch := make(chan int)
	go func() {
		select {
		case ch <- 1:
		case <-quit:
		}
	}()
}

// EscapeOK: the channel escapes through the return; the caller may consume.
func EscapeOK() chan int {
	ch := make(chan int)
	go func() { ch <- 1 }()
	return ch
}

// OpaqueOK: a function-value callee may do anything with the channel.
func OpaqueOK(f func(chan int)) {
	ch := make(chan int)
	go func() { ch <- 1 }()
	f(ch)
}

// DrainedOK: the counterpart receive arrives through a helper's summary.
func DrainedOK() {
	ch := make(chan int)
	go func() { ch <- 1 }()
	drain(ch)
}
