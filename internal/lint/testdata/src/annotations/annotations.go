// Package annotations is the golden corpus for the //oarsmt:allow
// machinery itself: malformed annotations, unknown analyzer names, empty
// reasons and stale (non-suppressing) annotations are all findings — a
// typo in a suppression must never silently disable it.
package annotations

import "sort"

// clean is ordinary allowed code so the package has something to check.
func clean(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

//oarsmt:allow dettaint missing parentheses // want "malformed annotation"

//oarsmt:allow nosuchanalyzer(reason here) // want "unknown analyzer"

//oarsmt:allow dettaint() // want "empty reason"

//oarsmt:allow dettaint(this line suppresses nothing at all) // want "unused //oarsmt:allow dettaint annotation"
