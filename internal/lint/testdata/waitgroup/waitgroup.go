// Package waitgroup is the golden fixture for the waitgroup analyzer:
// WaitGroup.Add placement relative to the go statement.
package waitgroup

import "sync"

// AddInside: Add in the counted goroutine races Wait.
func AddInside() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want `WaitGroup\.Add inside the goroutine it counts races Wait`
		defer wg.Done()
	}()
	wg.Wait()
}

// AddInsidePointer: a captured *WaitGroup is the same mistake.
func AddInsidePointer(wg *sync.WaitGroup) {
	go func() {
		wg.Add(1) // want `WaitGroup\.Add inside the goroutine it counts races Wait`
		defer wg.Done()
	}()
}

type notifier struct{ wg sync.WaitGroup }

// AddInsideField: a WaitGroup reached through a captured value is shared
// with the launching side too.
func (n *notifier) AddInsideField() {
	go func() {
		n.wg.Add(1) // want `WaitGroup\.Add inside the goroutine it counts races Wait`
		defer n.wg.Done()
	}()
	n.wg.Wait()
}

// LocalFieldOK: a struct declared inside the literal owns its WaitGroup.
func LocalFieldOK() {
	go func() {
		var n notifier
		n.wg.Add(1)
		go func() { n.wg.Done() }()
		n.wg.Wait()
	}()
}

// AddOutside: Add on the launching side, before the go statement.
func AddOutside() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

// LocalAddOK: a WaitGroup declared inside the literal is its own.
func LocalAddOK() {
	go func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { wg.Done() }()
		wg.Wait()
	}()
}
