// Golden corpus for dettaint's taint walk: deterministic roots are
// declared with the //oarsmt:detroot marker; sources are direct, one
// package away (dettaintdep), or excused by an //oarsmt:allow dettaint
// annotation. This package is outside the deterministic packages, so only
// the clock and rand rules apply per site here, not the map-order rule.
package dettaint

import (
	"math/rand"
	"time"

	dep "oarsmt/internal/lint/testdata/src/dettaintdep"
)

// Root reaches a cross-package clock read, a global rand call, and an
// order-escaping map range.
//
//oarsmt:detroot
func Root(xs map[int]int) int {
	s := dep.Stamp()
	r := rand.Int() // want "global math/rand call .rand.Int. reaches deterministic root"
	t := 0
	for k := range xs { // want "map iteration order .range over map xs. reaches deterministic root"
		t += k
	}
	return int(s) + r + t
}

// NotRoot also reaches Stamp, but nothing marks it deterministic, so it
// contributes no findings.
func NotRoot() int64 { return dep.Stamp() }

// CleanRoot only reaches pure code.
//
//oarsmt:detroot
func CleanRoot(x int) int { return dep.Pure(x) }

// AllowedRangeRoot's map range matches no per-site rule here, so only the
// root reaches it: the annotation excuses a finding and counts as used.
//
//oarsmt:detroot
func AllowedRangeRoot(xs map[int]int) int {
	t := 0
	//oarsmt:allow dettaint(corpus: an order-insensitive sum of ints)
	for k := range xs {
		t += k
	}
	return t
}

// SuppressedRoot's source is excused with a dettaint annotation.
//
//oarsmt:detroot
func SuppressedRoot() int {
	return rand.Int() //oarsmt:allow dettaint(corpus: reviewed randomness)
}

// BothRoot's clock read also matches the per-site clock rule (this
// package is neither main nor a timing package): it is one finding, the
// taint one.
//
//oarsmt:detroot
func BothRoot() int64 {
	return time.Now().UnixNano() // want "wall-clock read .time.Now. reaches deterministic root dettaint.BothRoot via dettaint.BothRoot;"
}
