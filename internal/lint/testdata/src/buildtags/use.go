package buildtags

// Mode reports which kernel the build picked.
func Mode() int { return kernel() }
