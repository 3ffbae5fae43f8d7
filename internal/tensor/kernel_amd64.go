//go:build amd64 && !purego

package tensor

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state
// (CPUID plus XGETBV, detected once at start-up). When set, convFwdTile
// runs on the assembly panels of kernel_amd64.s; the generic Go kernels
// stay the fallback and the reference the tests hold them to.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// panel2F64 adds, for every position i < n and every tap j < k3 in
// ascending order, wa[j]·rows[j][i] to a[i] and wb[j]·rows[j][i] to b[i]:
// the exact per-element chain of fwdAxpy4x2 followed by the axpy tail.
// panel1F64 is the one-output form. The caller has checked every bound,
// k3 ≥ 1 and n ≥ 1.
//
//go:noescape
func panel2F64(a, b, wa, wb []float64, rows [][]float64, k3, n int)

//go:noescape
func panel1F64(a, wa []float64, rows [][]float64, k3, n int)

// convFwdTileAVX2 is convFwdTile on the assembly panels: each pair of
// output channels takes every tap of the input channel in one panel2
// call, loading and storing its two output segments once per block of
// positions instead of once per four taps; an odd last channel goes to
// panel1.
func convFwdTileAVX2(out, w []float64, rows [][]float64, sh convShape, jBase, t0, t1 int) {
	N, J, outC := sh.n(), sh.j(), sh.outC
	k3 := sh.k * sh.k * sh.k
	oc := 0
	for ; oc+2 <= outC; oc += 2 {
		wa, wb := oc*J+jBase, (oc+1)*J+jBase
		panel2(out[oc*N+t0:oc*N+t1], out[(oc+1)*N+t0:(oc+1)*N+t1],
			w[wa:wa+k3], w[wb:wb+k3], rows)
	}
	if oc < outC {
		wa := oc*J + jBase
		panel1(out[oc*N+t0:oc*N+t1], w[wa:wa+k3], rows)
	}
}

// panel2 bounds-checks everything the assembly reads — rows[j] for every
// tap j < len(wa), b and each of those rows re-sliced to len(a), wb to
// len(wa) — and then runs the kernel. A short slice panics here, as it
// would in the Go kernels.
func panel2(a, b, wa, wb []float64, rows [][]float64) {
	n, k3 := len(a), len(wa)
	b, wb = b[:n], wb[:k3]
	for j := range k3 {
		_ = rows[j][:n]
	}
	if n == 0 || k3 == 0 {
		return
	}
	panel2F64(a, b, wa, wb, rows, k3, n)
}

// panel1 is panel2 for a single output channel.
func panel1(a, wa []float64, rows [][]float64) {
	n, k3 := len(a), len(wa)
	for j := range k3 {
		_ = rows[j][:n]
	}
	if n == 0 || k3 == 0 {
		return
	}
	panel1F64(a, wa, rows, k3, n)
}
