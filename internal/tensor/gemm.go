package tensor

import (
	"sync"

	"oarsmt/internal/parallel"
)

// This file is the im2col + blocked-GEMM convolution engine shared by the
// float64 training path and the float32 inference mode.
//
// A "same" 3-D convolution over x[InC][H][V][M] with kernel w[OutC][InC][K³]
// is lowered to a matrix multiply
//
//	out[oc][p] = bias[oc] + Σ_j W[oc][j] · Col[j][p]
//
// where j = (ic, kh, kv, km) in ascending row-major order — exactly the
// layout w.Data already has — and Col[j][p] is the input value under tap j
// at output position p (zero where the tap leaves the volume). Col is
// never materialised whole: positions are processed in fixed-width tiles
// (convTile), and within a tile only one input channel's K³ patch rows
// exist at a time, built by one flat shifted copy plus strided zeroing of
// the padding-contaminated border positions.
//
// # Bit-determinism
//
// Every output element accumulates its terms in strictly ascending j order
// from a bias-initialised single accumulator, written as separate
// `s += F(w*c)` statements. Go never reassociates floating-point
// expressions, but the spec lets it fuse x*y + z into one multiply-add,
// and on arm64 it does; the explicit conversion rounds the product, which
// rules the fusion out. So the result is bit-identical on every GOARCH to
// the textbook 7-loop direct convolution that the tests keep as reference
// — and independent of the tile width, the register blocking and the
// worker count: parallel shards split whole position tiles (forward) or
// whole input channels (backward), never an element's accumulation chain.
// The backward dot products (dot/dot2/colGrad4) carry the same conversion.
//
// On amd64 with AVX2 the forward tile runs on the assembly panels of
// kernel_amd64.s (convFwdTileAVX2), which keep the same chain in every
// vector lane: a separate VMULPD and VADDPD per tap, no FMA.

// num is the element domain of the generic kernels.
type num interface{ ~float32 | ~float64 }

// convShape carries the dimensions of one convolution call.
type convShape struct {
	inC, outC, h, v, m, k int
}

// n returns the output positions per channel.
func (s convShape) n() int { return s.h * s.v * s.m }

// j returns the reduction length InC·K³.
func (s convShape) j() int { return s.inC * s.k * s.k * s.k }

// macs returns the multiply-add count, the work estimate handed to
// parallel.ForWork.
func (s convShape) macs() int { return s.outC * s.j() * s.n() }

// convTile is the position-tile width: small enough that one channel's K³
// patch rows (K³ · convTile elements) and the output panel stay
// cache-resident, large enough to amortise the per-tile row builds.
const convTile = 256

// convScratch is one worker's reusable tile buffer: nRows patch rows of
// convTile elements carved out of a single backing slice.
type convScratch[F num] struct {
	buf  []F
	rows [][]F
}

func (s *convScratch[F]) ensure(nRows, width int) [][]F {
	if need := nRows * width; cap(s.buf) < need {
		s.buf = make([]F, need)
	}
	buf := s.buf[:nRows*width]
	if cap(s.rows) < nRows {
		s.rows = make([][]F, nRows)
	}
	s.rows = s.rows[:nRows]
	for i := range s.rows {
		s.rows[i] = buf[i*width : (i+1)*width]
	}
	return s.rows
}

// The scratch pools keep per-worker tile buffers alive across calls, so a
// steady-state convolution performs no heap allocation beyond its output.
var (
	scratch64Pool = sync.Pool{New: func() any { return new(convScratch[float64]) }}
	scratch32Pool = sync.Pool{New: func() any { return new(convScratch[float32]) }}
)

func getScratch[F num]() *convScratch[F] {
	var z F
	if _, is64 := any(z).(float64); is64 {
		return scratch64Pool.Get().(*convScratch[F])
	}
	return scratch32Pool.Get().(*convScratch[F])
}

func putScratch[F num](s *convScratch[F]) {
	var z F
	if _, is64 := any(z).(float64); is64 {
		scratch64Pool.Put(s)
	} else {
		scratch32Pool.Put(s)
	}
}

// im2colRow fills dst[0 : t1-t0] with patch row (dh, dv, dm) of channel
// plane xc over output positions [t0, t1): dst[p-t0] = xc at the flat
// position shifted by the tap, or 0 where the tap leaves the volume. The
// bulk is one flat copy at offset (dh·V+dv)·M+dm; the flat shift wrongly
// wraps values across M-row and V-plane ends, so those border positions
// are zeroed afterwards (their true source is padding).
func im2colRow[F num](dst, xc []F, h, v, m, dh, dv, dm, t0, t1 int) {
	off := (dh*v+dv)*m + dm
	plane := h * v * m
	dst = dst[:t1-t0]
	cs, ce := t0+off, t1+off
	if cs < 0 {
		cs = 0
	}
	if ce > plane {
		ce = plane
	}
	if cs >= ce {
		clear(dst)
		return
	}
	lo, hi := cs-off-t0, ce-off-t0
	clear(dst[:lo])
	copy(dst[lo:hi], xc[cs:ce])
	clear(dst[hi:])
	zeroBorders(dst, h, v, m, dh, dv, dm, t0, t1)
}

// zeroBorders zeroes the positions p in [t0, t1) (indexed p-t0 in dst)
// whose tap (dh, dv, dm) falls outside the volume: a whole flat band of H
// planes for dh, a V-row band per plane for dv, and |dm| strided elements
// per M-row for dm.
func zeroBorders[F num](dst []F, h, v, m, dh, dv, dm, t0, t1 int) {
	vm := v * m
	if dh != 0 {
		var lo, hi int
		if dh > 0 {
			lo, hi = max(h-dh, 0)*vm, h*vm
		} else {
			lo, hi = 0, min(-dh, h)*vm
		}
		zeroSpan(dst, lo, hi, t0, t1)
	}
	if dv != 0 {
		var s0, w int
		if dv > 0 {
			s0 = max(v-dv, 0)
			w = v - s0
		} else {
			w = min(-dv, v)
		}
		for base := (t0 / vm) * vm; base < t1; base += vm {
			zeroSpan(dst, base+s0*m, base+(s0+w)*m, t0, t1)
		}
	}
	if dm != 0 {
		var s0, w int
		if dm > 0 {
			s0 = max(m-dm, 0)
			w = m - s0
		} else {
			w = min(-dm, m)
		}
		if w == 1 {
			// One border element per M-row (every |dm| == 1 tap): a bare
			// strided store loop, no per-row span clipping.
			i := (t0/m)*m + s0
			if i < t0 {
				i += m
			}
			for ; i < t1; i += m {
				dst[i-t0] = 0
			}
			return
		}
		for base := (t0 / m) * m; base < t1; base += m {
			zeroSpan(dst, base+s0, base+s0+w, t0, t1)
		}
	}
}

// zeroSpan zeroes the intersection of flat positions [lo, hi) with the
// tile [t0, t1) in dst (which is indexed relative to t0). The border spans
// of thin dimensions are one or two elements wide, and there are many per
// tile; those go through plain stores — a memclr call per 8–16 bytes costs
// more than the clearing itself.
func zeroSpan[F num](dst []F, lo, hi, t0, t1 int) {
	lo = max(lo, t0)
	hi = min(hi, t1)
	if hi-lo <= 0 {
		return
	}
	if hi-lo <= 16 {
		for i := lo - t0; i < hi-t0; i++ {
			dst[i] = 0
		}
		return
	}
	clear(dst[lo-t0 : hi-t0])
}

// buildColsIC fills rows[0 : K³] with the patch rows of input channel
// plane xc for tile [t0, t1), in ascending (kh, kv, km) order. For K == 1
// the single row is a direct view of the channel plane — no copy.
func buildColsIC[F num](rows [][]F, xc []F, sh convShape, t0, t1 int) {
	if sh.k == 1 {
		rows[0] = xc[t0:t1]
		return
	}
	p := sh.k / 2
	jj := 0
	for kh := 0; kh < sh.k; kh++ {
		for kv := 0; kv < sh.k; kv++ {
			for km := 0; km < sh.k; km++ {
				im2colRow(rows[jj], xc, sh.h, sh.v, sh.m, kh-p, kv-p, km-p, t0, t1)
				jj++
			}
		}
	}
}

// fwdAxpy4x2 is the forward register micro-kernel: two output rows gain
// four consecutive reduction terms each, with the column loads shared.
// The four adds per element are separate statements on one accumulator,
// preserving the ascending-j chain.
func fwdAxpy4x2[F num](a, b, wa, wb, c0, c1, c2, c3 []F) {
	wa0, wa1, wa2, wa3 := wa[0], wa[1], wa[2], wa[3]
	wb0, wb1, wb2, wb3 := wb[0], wb[1], wb[2], wb[3]
	b = b[:len(a)]
	c0 = c0[:len(a)]
	c1 = c1[:len(a)]
	c2 = c2[:len(a)]
	c3 = c3[:len(a)]
	for i := range a {
		x0, x1, x2, x3 := c0[i], c1[i], c2[i], c3[i]
		s := a[i]
		s += F(wa0 * x0)
		s += F(wa1 * x1)
		s += F(wa2 * x2)
		s += F(wa3 * x3)
		a[i] = s
		u := b[i]
		u += F(wb0 * x0)
		u += F(wb1 * x1)
		u += F(wb2 * x2)
		u += F(wb3 * x3)
		b[i] = u
	}
}

// fwdAxpy4 is the single-row tail of fwdAxpy4x2 for odd output-channel
// counts.
func fwdAxpy4[F num](a, wa, c0, c1, c2, c3 []F) {
	wa0, wa1, wa2, wa3 := wa[0], wa[1], wa[2], wa[3]
	c0 = c0[:len(a)]
	c1 = c1[:len(a)]
	c2 = c2[:len(a)]
	c3 = c3[:len(a)]
	for i := range a {
		s := a[i]
		s += F(wa0 * c0[i])
		s += F(wa1 * c1[i])
		s += F(wa2 * c2[i])
		s += F(wa3 * c3[i])
		a[i] = s
	}
}

// axpy accumulates dst += w·src elementwise.
func axpy[F num](dst []F, w F, src []F) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += F(w * src[i])
	}
}

// convFwdTile accumulates the K³ patch rows of one input channel into the
// output panel of tile [t0, t1): ascending-j blocks of four, paired output
// channels. rows were built by buildColsIC for the same tile; jBase is the
// flat reduction index of (ic, 0, 0, 0).
func convFwdTile[F num](out, w []F, rows [][]F, sh convShape, jBase, t0, t1 int) {
	if hasAVX2 {
		convFwdTileAVX2(out, w, rows, sh, jBase, t0, t1)
		return
	}
	N, J, outC := sh.n(), sh.j(), sh.outC
	k3 := sh.k * sh.k * sh.k
	jj := 0
	for ; jj+4 <= k3; jj += 4 {
		c0, c1, c2, c3 := rows[jj], rows[jj+1], rows[jj+2], rows[jj+3]
		oc := 0
		for ; oc+2 <= outC; oc += 2 {
			fwdAxpy4x2(out[oc*N+t0:oc*N+t1], out[(oc+1)*N+t0:(oc+1)*N+t1],
				w[oc*J+jBase+jj:], w[(oc+1)*J+jBase+jj:], c0, c1, c2, c3)
		}
		if oc < outC {
			fwdAxpy4(out[oc*N+t0:oc*N+t1], w[oc*J+jBase+jj:], c0, c1, c2, c3)
		}
	}
	for ; jj < k3; jj++ {
		for oc := 0; oc < outC; oc++ {
			axpy(out[oc*N+t0:oc*N+t1], w[oc*J+jBase+jj], rows[jj])
		}
	}
}

// convForward runs the full forward pass: position tiles sharded over the
// worker pool by multiply-add work, each tile bias-initialised and then
// accumulated one input channel at a time (global j order stays
// ascending: ic-major, tap-minor).
func convForward[F num](out, x, w, bias []F, sh convShape) {
	N := sh.n()
	k3 := sh.k * sh.k * sh.k
	nTiles := (N + convTile - 1) / convTile
	parallel.ForWork(sh.macs(), nTiles, func(_, tlo, thi int) {
		sc := getScratch[F]()
		rows := sc.ensure(k3, convTile)
		for t := tlo; t < thi; t++ {
			t0 := t * convTile
			t1 := min(t0+convTile, N)
			for oc := 0; oc < sh.outC; oc++ {
				seg := out[oc*N+t0 : oc*N+t1]
				var b F
				if bias != nil {
					b = bias[oc]
				}
				for i := range seg {
					seg[i] = b
				}
			}
			for ic := 0; ic < sh.inC; ic++ {
				buildColsIC(rows, x[ic*N:(ic+1)*N], sh, t0, t1)
				convFwdTile(out, w, rows, sh, ic*k3, t0, t1)
			}
		}
		putScratch(sc)
	})
}

// dot2 returns the dot products of g with two patch rows, sharing the g
// loads; each accumulates in ascending position order.
func dot2[F num](c0, c1, g []F) (F, F) {
	c0 = c0[:len(g)]
	c1 = c1[:len(g)]
	var a0, a1 F
	for i := range g {
		gv := g[i]
		a0 += F(gv * c0[i])
		a1 += F(gv * c1[i])
	}
	return a0, a1
}

// dot returns the dot product of g with one patch row.
func dot[F num](c, g []F) F {
	c = c[:len(g)]
	var a F
	for i := range g {
		a += F(g[i] * c[i])
	}
	return a
}

// colGrad4 accumulates four patch-gradient rows: cX += w[X]·g.
func colGrad4[F num](c0, c1, c2, c3, w, g []F) {
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	c0 = c0[:len(g)]
	c1 = c1[:len(g)]
	c2 = c2[:len(g)]
	c3 = c3[:len(g)]
	for i := range g {
		gv := g[i]
		c0[i] += F(w0 * gv)
		c1[i] += F(w1 * gv)
		c2[i] += F(w2 * gv)
		c3[i] += F(w3 * gv)
	}
}

// convBackwardIC computes gradX[ic] and the gradW column block of input
// channel ic. Per tile it rebuilds the channel's patch rows, takes the
// gradW dot products (positions ascending per (oc, tap), tiles ascending),
// accumulates the patch-gradient rows over ascending output channels, and
// scatter-adds them back (col2im): the exact transpose of the forward
// flat-shift, with the padding taps' gradients zeroed first.
func convBackwardIC[F num](gradX, gradW, x, w, gradOut []F, sh convShape, ic int, colRows, cgRows [][]F) {
	N, J, outC, k := sh.n(), sh.j(), sh.outC, sh.k
	k3 := k * k * k
	p := k / 2
	xc := x[ic*N : (ic+1)*N]
	gxc := gradX[ic*N : (ic+1)*N]
	jBase := ic * k3
	for t0 := 0; t0 < N; t0 += convTile {
		t1 := min(t0+convTile, N)
		T := t1 - t0
		buildColsIC(colRows, xc, sh, t0, t1)
		for jj := 0; jj < k3; jj++ {
			clear(cgRows[jj][:T])
		}
		for oc := 0; oc < outC; oc++ {
			g := gradOut[oc*N+t0 : oc*N+t1]
			wrow := w[oc*J+jBase : oc*J+jBase+k3]
			gwRow := gradW[oc*J+jBase : oc*J+jBase+k3]
			jj := 0
			for ; jj+2 <= k3; jj += 2 {
				a0, a1 := dot2(colRows[jj], colRows[jj+1], g)
				gwRow[jj] += a0
				gwRow[jj+1] += a1
			}
			if jj < k3 {
				gwRow[jj] += dot(colRows[jj], g)
			}
			jj = 0
			for ; jj+4 <= k3; jj += 4 {
				colGrad4(cgRows[jj][:T], cgRows[jj+1][:T], cgRows[jj+2][:T], cgRows[jj+3][:T], wrow[jj:], g)
			}
			for ; jj < k3; jj++ {
				axpy(cgRows[jj][:T], wrow[jj], g)
			}
		}
		jj := 0
		for kh := 0; kh < k; kh++ {
			for kv := 0; kv < k; kv++ {
				for km := 0; km < k; km++ {
					dh, dv, dm := kh-p, kv-p, km-p
					row := cgRows[jj][:T]
					zeroBorders(row, sh.h, sh.v, sh.m, dh, dv, dm, t0, t1)
					off := (dh*sh.v+dv)*sh.m + dm
					lo, hi := t0, t1
					if lo+off < 0 {
						lo = -off
					}
					if hi+off > N {
						hi = N - off
					}
					if lo < hi {
						dst := gxc[lo+off : hi+off]
						src := row[lo-t0 : hi-t0]
						for i := range dst {
							dst[i] += src[i]
						}
					}
					jj++
				}
			}
		}
	}
}

// convBackward runs the full backward pass. gradB shards its per-channel
// ascending-position sums over output channels; gradX and gradW shard
// over input channels, whose outputs are disjoint. All three outputs must
// arrive zeroed. Results are bit-identical at any worker count because a
// channel never splits across shards.
func convBackward[F num](gradX, gradW, gradB, x, w, gradOut []F, sh convShape) {
	N := sh.n()
	k3 := sh.k * sh.k * sh.k
	parallel.ForWork(sh.outC*N, sh.outC, func(_, lo, hi int) {
		for oc := lo; oc < hi; oc++ {
			g := gradOut[oc*N : (oc+1)*N]
			var sum F
			for _, v := range g {
				sum += v
			}
			gradB[oc] = sum
		}
	})
	parallel.ForWork(2*sh.macs(), sh.inC, func(_, lo, hi int) {
		sc := getScratch[F]()
		rows := sc.ensure(2*k3, convTile)
		colRows, cgRows := rows[:k3], rows[k3:]
		for ic := lo; ic < hi; ic++ {
			convBackwardIC(gradX, gradW, x, w, gradOut, sh, ic, colRows, cgRows)
		}
		putScratch(sc)
	})
}
