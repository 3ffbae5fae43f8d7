// Package seededrand is the golden corpus for dettaint's per-site global
// rand rule: math/rand top-level functions draw from the shared global
// source and must be flagged; explicit seeded instances and type
// references must not.
package seededrand

import "math/rand"

func draw() int {
	return rand.Intn(10) // want "rand.Intn uses the shared global source"
}

func deal(n int) []int {
	return rand.Perm(n) // want "rand.Perm uses the shared global source"
}

// Taking a function value is just as much a use as calling it.
var shuffle = rand.Shuffle // want "rand.Shuffle uses the shared global source"

// seeded is the sanctioned pattern: an explicit per-purpose generator.
func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Types and methods on instances are untouched.
func methods(r *rand.Rand, src rand.Source) int {
	_ = src
	return r.Intn(3)
}
