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
// panel1F64 is the one-output form; the F32 pair is the same on float32.
// The caller has checked every bound, k3 ≥ 1 and n ≥ 1.
//
//go:noescape
func panel2F64(a, b, wa, wb []float64, rows [][]float64, k3, n int)

//go:noescape
func panel1F64(a, wa []float64, rows [][]float64, k3, n int)

//go:noescape
func panel2F32(a, b, wa, wb []float32, rows [][]float32, k3, n int)

//go:noescape
func panel1F32(a, wa []float32, rows [][]float32, k3, n int)

// convFwdTileAVX2 is convFwdTile on the assembly panels: each pair of
// output channels takes every tap of the input channel in one panel2
// call, loading and storing its two output segments once per block of
// positions instead of once per four taps; an odd last channel goes to
// panel1.
func convFwdTileAVX2[F num](out, w []F, rows [][]F, sh convShape, jBase, t0, t1 int) {
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
// len(wa) — and then runs the kernel of F's width. A short slice panics
// here, as it would in the Go kernels.
func panel2[F num](a, b, wa, wb []F, rows [][]F) {
	n, k3 := len(a), len(wa)
	b, wb = b[:n], wb[:k3]
	for j := range k3 {
		_ = rows[j][:n]
	}
	if n == 0 || k3 == 0 {
		return
	}
	switch a := any(a).(type) {
	case []float64:
		panel2F64(a, any(b).([]float64), any(wa).([]float64), any(wb).([]float64), any(rows).([][]float64), k3, n)
	case []float32:
		panel2F32(a, any(b).([]float32), any(wa).([]float32), any(wb).([]float32), any(rows).([][]float32), k3, n)
	}
}

// panel1 is panel2 for a single output channel.
func panel1[F num](a, wa []F, rows [][]F) {
	n, k3 := len(a), len(wa)
	for j := range k3 {
		_ = rows[j][:n]
	}
	if n == 0 || k3 == 0 {
		return
	}
	switch a := any(a).(type) {
	case []float64:
		panel1F64(a, any(wa).([]float64), any(rows).([][]float64), k3, n)
	case []float32:
		panel1F32(a, any(wa).([]float32), any(rows).([][]float32), k3, n)
	}
}
