// Package nowallclock is the golden corpus for dettaint's per-site clock
// rule: wall-clock reads in deterministic library code must be flagged,
// package-level initializers included; annotated timing metadata and
// non-clock uses of package time must not.
package nowallclock

import "time"

func elapsed() time.Duration {
	start := time.Now() // want "time.Now outside timing code"
	work()
	return time.Since(start) // want "time.Since outside timing code"
}

func remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want "time.Until outside timing code"
}

// conversions and constants of package time are not wall-clock reads.
func epoch() time.Time {
	return time.Unix(0, 0).Add(5 * time.Second)
}

func annotated() time.Time {
	//oarsmt:allow dettaint(corpus: demonstrates an annotated exemption)
	return time.Now()
}

func work() {}

// Package-level initializers are scanned like function bodies.
var bootTime = time.Now() // want "time.Now outside timing code"

var stamp = func() int64 { return time.Now().UnixNano() } // want "time.Now outside timing code"
