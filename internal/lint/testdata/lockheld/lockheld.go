// Package lockheld is the golden input for the lockheld analyzer.
package lockheld

import (
	"sync"
	"time"
)

func sendWhileHeld(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want `potentially blocking operation \(channel send\) while holding`
	mu.Unlock()
}

func recvWhileHeld(mu *sync.Mutex, ch chan int) int {
	mu.Lock()
	defer mu.Unlock()
	return <-ch // want `potentially blocking operation \(channel receive\) while holding`
}

func sendAfterUnlock(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	mu.Unlock()
	ch <- 1
}

func blockingSelectWhileHeld(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	select { // want `potentially blocking operation \(select without default\) while holding`
	case v := <-ch:
		_ = v
	}
}

func nonBlockingSelectWhileHeld(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	select {
	case v := <-ch:
		_ = v
	default:
	}
}

func waitGroupWhileHeld(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	defer mu.Unlock()
	wg.Wait() // want `potentially blocking operation \(call to sync\.WaitGroup\.Wait\) while holding`
}

func sleepWhileHeld(mu *sync.RWMutex) {
	mu.RLock()
	time.Sleep(time.Millisecond) // want `potentially blocking operation \(call to time\.Sleep\) while holding`
	mu.RUnlock()
}

// helper blocks on its channel; the package-local fixpoint infers it.
func helper(ch chan int) int { return <-ch }

// indirect blocks because helper does; the inference is transitive.
func indirect(ch chan int) int { return helper(ch) }

func localCallWhileHeld(mu *sync.Mutex, ch chan int) int {
	mu.Lock()
	defer mu.Unlock()
	return indirect(ch) // want `potentially blocking operation \(call to .*indirect \(may block: .*helper \(may block: channel receive\)\)\) while holding`
}

func goroutineBodyIsSeparate(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	go func() { <-ch }() // runs elsewhere; does not block the holder
	mu.Unlock()
}

func deferredCallRunsAtReturn(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	defer wg.Wait() // runs at return, outside the scan
	mu.Unlock()
}

func heldOnOnePath(mu *sync.Mutex, ch chan int, flag bool) {
	if flag {
		mu.Lock()
		defer mu.Unlock()
	}
	<-ch // want `potentially blocking operation \(channel receive\) while holding`
}

func nonBlockingCallsAreFine(mu *sync.Mutex, other *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	pureWork(2)
}

func pureWork(n int) int { return n * n }

// tryAcquire never blocks: the select has a default clause.
func tryAcquire(sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func trySubmitWhileHeld(mu *sync.Mutex, sem chan struct{}) bool {
	mu.Lock()
	defer mu.Unlock()
	return tryAcquire(sem)
}
