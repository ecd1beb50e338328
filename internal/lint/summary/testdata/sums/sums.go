// Package sums is the summary test fixture.
package sums

// ---- parameter ops -----------------------------------------------------

// SendTo sends on its parameter.
func SendTo(ch chan int, v int) { ch <- v }

// CloseIt closes its parameter.
func CloseIt(ch chan int) { close(ch) }

// Recv receives from its parameter.
func Recv(ch chan int) int { return <-ch }

// DrainVia receives from its parameter through a helper.
func DrainVia(ch chan int) int { return Recv(ch) }

var sink chan int

// Leak stores its parameter in a global: escape.
func Leak(ch chan int) { sink = ch }

// Hand returns its parameter: escape.
func Hand(ch chan int) chan int { return ch }

// Capture hands its parameter to a goroutine closure: escape.
func Capture(ch chan int) {
	go func() { ch <- 1 }()
}

// Opaque passes its parameter through a function value: the analysis loses
// track, so the parameter escapes.
func Opaque(ch chan int, f func(chan int)) { f(ch) }

// Poll receives in a select clause header.
func Poll(ch chan int) (int, bool) {
	select {
	case v := <-ch:
		return v, true
	default:
		return 0, false
	}
}

// ---- recursion / SCC convergence ---------------------------------------

// PingSend and PongSend are mutually recursive; Pong bottoms out in a send,
// so both must converge to a sent-on parameter.
func PingSend(ch chan int, n int) {
	if n <= 0 {
		return
	}
	PongSend(ch, n-1)
}

func PongSend(ch chan int, n int) {
	if n == 1 {
		ch <- n
		return
	}
	PingSend(ch, n-1)
}

// SelfClean recurses directly with no channel ops: the fixpoint must
// terminate with an empty summary.
func SelfClean(n int) int {
	if n <= 0 {
		return 0
	}
	return SelfClean(n - 1)
}

// ---- interface dispatch ------------------------------------------------

// Putter has two implementations: narrow dispatch, CHA applies.
type Putter interface{ Put(ch chan int) }

type SendPutter struct{}

func (SendPutter) Put(ch chan int) { ch <- 1 }

type NopPutter struct{}

func (NopPutter) Put(ch chan int) {}

// UsePutter dispatches through the narrow interface: the sending
// implementation marks its channel parameter sent-on.
func UsePutter(p Putter, ch chan int) { p.Put(ch) }
