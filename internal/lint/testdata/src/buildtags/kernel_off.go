//go:build !lintcorpus_on

package buildtags

func kernel() int { return 0 }
