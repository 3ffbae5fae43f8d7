//go:build amd64 && !purego

package tensor

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state
// (CPUID plus XGETBV, detected once at start-up). When set, convFwdTile
// runs on the assembly panels of kernel_amd64.s; the generic Go kernels
// stay the fallback and the reference the tests hold them to.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// panel2F64 adds, for every position i < n and every tap j < k3 in
// ascending order, wa[j]·x and wb[j]·x to a[i] and b[i], where x is
// taps[j][i] with its bits ANDed by masks[j][i]: the exact per-element
// chain of fwdAxpy4x2 followed by the axpyMasked tail. panel1F64 is the
// one-output form. The caller has checked every bound, k3 ≥ 1 and n ≥ 1.
//
//go:noescape
func panel2F64(a, b, wa, wb []float64, taps [][]float64, masks [][]uint64, k3, n int)

//go:noescape
func panel1F64(a, wa []float64, taps [][]float64, masks [][]uint64, k3, n int)

// convFwdTileAVX2 is convFwdTile on the assembly panels: each pair of
// output channels takes every tap of the input channel in one panel2F64
// call, loading and storing its two output segments once per block of
// positions instead of once per four taps; an odd last channel goes to
// panel1F64. Everything the assembly reads is bounds-checked first: every
// tap and mask re-sliced to the tile width, once per call, and each output
// segment and weight row by slicing. A short slice panics here, as it
// would in the Go kernels.
func convFwdTileAVX2(out, w []float64, taps [][]float64, masks [][]uint64, sh convShape, jBase, t0, t1 int) {
	N, J, outC := sh.n(), sh.j(), sh.outC
	n, k3 := t1-t0, len(taps)
	for j := range k3 {
		_ = taps[j][:n]
		_ = masks[j][:n]
	}
	if n == 0 || k3 == 0 {
		return
	}
	oc := 0
	for ; oc+2 <= outC; oc += 2 {
		wa, wb := oc*J+jBase, (oc+1)*J+jBase
		panel2F64(out[oc*N+t0:oc*N+t1], out[(oc+1)*N+t0:(oc+1)*N+t1],
			w[wa:wa+k3], w[wb:wb+k3], taps, masks, k3, n)
	}
	if oc < outC {
		wa := oc*J + jBase
		panel1F64(out[oc*N+t0:oc*N+t1], w[wa:wa+k3], taps, masks, k3, n)
	}
}
