//go:build race

package tensor

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of its Puts and allocation counts stop measuring the kernels.
const raceEnabled = true
