package buildtags

// kernel is also declared by this file, which its _plan9 suffix confines
// to GOOS=plan9.
func kernel() int { return 9 }
