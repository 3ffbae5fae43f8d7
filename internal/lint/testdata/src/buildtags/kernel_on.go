//go:build lintcorpus_on

package buildtags

// kernel is declared once per build: this file and kernel_off.go are
// tag-exclusive, so a loader that ignored the constraints would see it
// redeclared.
func kernel() int { return 1 }
