// Package nilstrategy is the golden input for the nilstrategy analyzer.
package nilstrategy

import (
	"log"
	"os"
)

type policy map[int]int

type cache struct{ entries map[string]policy }

// Lookup follows the comma-ok contract of sched.Cache.Lookup: the policy
// is meaningful only when the bool result is true.
func (c *cache) Lookup(key string) (policy, float64, bool) {
	p, ok := c.entries[key]
	return p, 0.5, ok
}

// Lookup is the package-level two-result form of the contract.
func Lookup(key string) (policy, bool) {
	return nil, false
}

func uncheckedUse(c *cache) int {
	p, _, ok := c.Lookup("a")
	_ = ok
	return p[0] // want `p may be invalid: ok result of the lookup at .* is not checked on this path`
}

func checkedUse(c *cache) int {
	p, _, ok := c.Lookup("a")
	if !ok {
		return -1
	}
	return p[0]
}

func checkedInIfHeader(c *cache) int {
	if p, _, ok := c.Lookup("a"); ok {
		return p[0]
	}
	return -1
}

func elseBranchUse(c *cache) int {
	p, _, ok := c.Lookup("a")
	if ok {
		return p[0]
	}
	return p[1] // want `p may be invalid`
}

func discardedOkNilChecked(c *cache) int {
	p, _, _ := c.Lookup("a")
	if p == nil {
		return -1
	}
	return p[0]
}

func discardedOkUnchecked(c *cache) int {
	p, _, _ := c.Lookup("a")
	return p[0] // want `p may be invalid: the lookup at .* discards its ok result`
}

func lenGuard(c *cache) int {
	p, _, _ := c.Lookup("a")
	if len(p) == 0 {
		return -1
	}
	return p[0]
}

func lenGuardPositive(c *cache) int {
	p, _, _ := c.Lookup("a")
	if len(p) > 0 {
		return p[0]
	}
	return -1
}

func conjunctionGuard(c *cache, want bool) int {
	p, _, ok := c.Lookup("a")
	if ok && want {
		return p[0]
	}
	return -1
}

func checkOnOnePathOnly(c *cache, deep bool) int {
	p, _, ok := c.Lookup("a")
	if deep {
		if !ok {
			return -1
		}
	}
	return p[0] // want `p may be invalid`
}

func reassignedClears(c *cache) int {
	p, _, _ := c.Lookup("a")
	p = policy{0: 1}
	return p[0]
}

func twoResultForm() bool {
	p, ok := Lookup("a")
	if !ok {
		return false
	}
	return p[0] == 1
}

func twoResultFormUnchecked() int {
	p, ok := Lookup("a")
	_ = ok
	return p[0] // want `p may be invalid`
}

// fetch is not a lookup: the callee name differs, so the comma-ok
// contract is not assumed.
func fetch(key string) (policy, bool) { return nil, false }

func otherNamesUntracked() int {
	p, ok := fetch("a")
	_ = ok
	return p[0]
}

func loopRecheckEachIteration(c *cache, keys []string) int {
	total := 0
	for _, k := range keys {
		p, _, ok := c.Lookup(k)
		if !ok {
			continue
		}
		total += p[0]
	}
	return total
}

// Calls that never return end the unchecked path: what follows the guard
// is reached only with ok true.
func fatalOnMiss(c *cache) int {
	p, _, ok := c.Lookup("a")
	if !ok {
		log.Fatalf("no strategy for %q", "a")
	}
	return p[0]
}

func fatallnOnMiss(c *cache) int {
	p, _, ok := c.Lookup("a")
	if !ok {
		log.Fatalln("no strategy")
	}
	return p[0]
}

func exitOnMiss(c *cache) int {
	p, _, ok := c.Lookup("a")
	if !ok {
		os.Exit(2)
	}
	return p[0]
}

func panicOnMiss(c *cache) int {
	p, _, ok := c.Lookup("a")
	if !ok {
		panic("no strategy")
	}
	return p[0]
}

type logger struct{}

func (logger) Fatalf(string, ...any) {}

// A method named like log.Fatalf returns, so the path goes on.
func methodNamedFatal(c *cache, l logger) int {
	p, _, ok := c.Lookup("a")
	if !ok {
		l.Fatalf("no strategy")
	}
	return p[0] // want `p may be invalid`
}
