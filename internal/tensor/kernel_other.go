//go:build !amd64 || purego

package tensor

// hasAVX2 is false where there are no assembly kernels: convFwdTile
// always runs the generic Go code.
const hasAVX2 = false

func convFwdTileAVX2(out, w []float64, taps [][]float64, masks [][]uint64, sh convShape, jBase, t0, t1 int) {
	panic("tensor: no assembly kernels in this build")
}
