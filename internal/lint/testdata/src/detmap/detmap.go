// Package detmap is the golden corpus for dettaint's per-site map-order
// rule: map ranges whose iteration order can leak into results must be
// flagged, the collect-then-sort idiom and annotated order-insensitive
// reductions must not. Each // want comment is a regexp the harness
// matches against the diagnostic reported on that line.
package detmap

import (
	"sort"
	"strings"
)

// collectThenSort is the sanctioned idiom: keys are gathered and sorted
// before use, so iteration order cannot escape.
func collectThenSort(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// filteredCollect mixes filtering and continue branches into the
// collection loop; still order-safe because the slice is sorted after.
func filteredCollect(m map[string]int) []string {
	var keep []string
	for k, v := range m {
		if k == "" {
			continue
		}
		if v > 0 {
			keep = append(keep, k)
		}
	}
	sort.Strings(keep)
	return keep
}

// leakOrder appends in map order and never sorts: the result depends on
// the iteration order of the map.
func leakOrder(m map[string]int) string {
	var parts []string
	for k := range m { // want "range over map m"
		parts = append(parts, k)
	}
	return strings.Join(parts, ",")
}

// floatSum accumulates floats in map order: float addition is not
// associative, so even a "reduction" leaks the order into rounding.
func floatSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want "range over map m"
		total += v
	}
	return total
}

// minScan is order-insensitive by construction and carries the annotation
// the analyzer demands for such proofs.
func minScan(m map[int]bool) int {
	best := -1
	//oarsmt:allow dettaint(pure min-scan; the result is the same for every visit order)
	for k := range m {
		if best < 0 || k < best {
			best = k
		}
	}
	return best
}

// trailingAllow exercises the trailing-comment placement of the
// annotation on the offending line itself.
func trailingAllow(m map[int]int) int {
	n := 0
	for range m { //oarsmt:allow dettaint(pure cardinality count; order-insensitive)
		n++
	}
	return n
}
