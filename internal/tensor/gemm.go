package tensor

import (
	"math"
	"sync"

	"oarsmt/internal/parallel"
)

// This file is the blocked-GEMM convolution engine shared by the training
// and inference passes.
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
// (convTile), and within a tile only one input channel's taps exist at a
// time.
//
// # The forward tile: K² plane rows under K lane masks
//
// The forward pass builds, per input channel and tile [t0, t1), only the
// K² (dh, dv) plane rows, each over the widened positions [t0−p, t1+p)
// (p = K/2): one flat copy at offset (dh·V+dv)·M plus zeroing of the
// dh/dv border positions. Tap (dh, dv, dm) is then the view of its plane
// row at offset p+dm: at output position t it reads the plane value at
// t+dm. Where m+dm stays in [0, M) that is the tap's true input. Where it
// does not, the flat shift has wrapped into a neighbouring M-row (or off
// either end of the volume), so per tile K lane-mask rows, shared by all
// input channels, hold all ones where m+dm ∈ [0, M) and zero elsewhere,
// and every kernel ANDs each loaded lane with its tap's mask before the
// multiply. K == 1 needs no plane row: its single tap is a direct view of
// the channel.
//
// A masked lane is exactly +0.0, the value the K³-row im2col it replaces
// wrote there with clear, and a valid lane is the same input value; so
// every term and its ascending-j place are unchanged, whatever the wrapped
// neighbour holds — NaN and ±Inf included, since the AND discards its bits
// before any arithmetic sees them. The backward pass (training only) keeps
// the K³ im2col rows of buildColsIC and the col2im scatter.
//
// # Bit-determinism
//
// Every output element accumulates its terms in strictly ascending j order
// from a bias-initialised single accumulator, written as separate
// `s += float64(w*c)` statements. Go never reassociates floating-point
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
// vector lane: a VANDPD by the lane mask, then a separate VMULPD and VADDPD
// per tap, no FMA.

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

// convTile is the position-tile width: small enough that one channel's
// tile rows and the output panel stay cache-resident, large enough to
// amortise the per-tile row builds.
const convTile = 256

// convScratch is one worker's reusable tile buffers. rows are carved out
// of buf: the backward pass's 2·K³ patch rows, or the forward pass's K²
// plane rows. The forward pass also keeps its K lane-mask rows in mask
// and the K³ tap views over rows and mask in taps and tapMasks.
type convScratch struct {
	buf      []float64
	rows     [][]float64
	mask     []uint64
	taps     [][]float64
	tapMasks [][]uint64
}

func (s *convScratch) ensure(nRows, width int) [][]float64 {
	if need := nRows * width; cap(s.buf) < need {
		s.buf = make([]float64, need)
	}
	buf := s.buf[:nRows*width]
	if cap(s.rows) < nRows {
		s.rows = make([][]float64, nRows)
	}
	s.rows = s.rows[:nRows]
	for i := range s.rows {
		s.rows[i] = buf[i*width : (i+1)*width]
	}
	return s.rows
}

// fwdTaps fills the K lane-mask rows of tile [t0, t1) and returns the K³
// tap views and masks over planes (the K² plane rows of width
// convTile+2p). Tap j = (kh, kv, km) reads plane row kh·K+kv from offset
// km under mask row km, which is all ones at the positions whose m+dm
// (dm = km−p) stays in [0, M) and zero elsewhere.
func (s *convScratch) fwdTaps(planes [][]float64, sh convShape, t0, t1 int) ([][]float64, [][]uint64) {
	k, p, T := sh.k, sh.k/2, t1-t0
	k3 := k * k * k
	if cap(s.mask) < k*convTile {
		s.mask = make([]uint64, k*convTile)
	}
	if cap(s.taps) < k3 {
		s.taps = make([][]float64, k3)
		s.tapMasks = make([][]uint64, k3)
	}
	for km := 0; km < k; km++ {
		row := s.mask[km*convTile : km*convTile+T]
		dm, mm := km-p, t0%sh.m
		for i := range row {
			row[i] = 0
			if q := mm + dm; q >= 0 && q < sh.m {
				row[i] = math.MaxUint64
			}
			if mm++; mm == sh.m {
				mm = 0
			}
		}
	}
	taps, masks := s.taps[:k3], s.tapMasks[:k3]
	for j := range taps {
		km := j % k
		taps[j] = planes[j/k][km : km+T]
		masks[j] = s.mask[km*convTile : km*convTile+T]
	}
	return taps, masks
}

// scratchPool keeps per-worker tile buffers alive across calls, so a
// steady-state convolution performs no heap allocation beyond its output.
var scratchPool = sync.Pool{New: func() any { return new(convScratch) }}

// im2colRow fills dst[0 : t1-t0] with patch row (dh, dv, dm) of channel
// plane xc over output positions [t0, t1): dst[p-t0] = xc at the flat
// position shifted by the tap, or 0 where the tap leaves the volume. The
// bulk is one flat copy at offset (dh·V+dv)·M+dm; the flat shift wrongly
// wraps values across M-row and V-plane ends, so those border positions
// are zeroed afterwards (their true source is padding). The range may
// reach past either end of the volume (buildPlanes widens it by K/2);
// what lands at positions outside it is only ever read under a zero lane
// mask.
func im2colRow(dst, xc []float64, h, v, m, dh, dv, dm, t0, t1 int) {
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
func zeroBorders(dst []float64, h, v, m, dh, dv, dm, t0, t1 int) {
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
func zeroSpan(dst []float64, lo, hi, t0, t1 int) {
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

// buildColsIC fills rows[0 : K³] with the backward pass's patch rows of
// input channel plane xc for tile [t0, t1), in ascending (kh, kv, km)
// order. For K == 1
// the single row is a direct view of the channel plane — no copy.
func buildColsIC(rows [][]float64, xc []float64, sh convShape, t0, t1 int) {
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

// buildPlanes fills the K² plane rows of input channel plane xc for tile
// [t0, t1), in ascending (kh, kv) order: row kh·K+kv is patch row
// (dh, dv, 0) over the widened positions [t0−p, t1+p). A margin position
// outside the volume, like every wrapped one, is read only under a zero
// lane mask.
func buildPlanes(planes [][]float64, xc []float64, sh convShape, t0, t1 int) {
	p := sh.k / 2
	j := 0
	for kh := 0; kh < sh.k; kh++ {
		for kv := 0; kv < sh.k; kv++ {
			im2colRow(planes[j], xc, sh.h, sh.v, sh.m, kh-p, kv-p, 0, t0-p, t1+p)
			j++
		}
	}
}

// lane returns x under its lane mask: x itself under all ones, +0 under
// zero — whatever x holds, NaN and ±Inf included.
func lane(x float64, mask uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) & mask)
}

// fwdAxpy4x2 is the forward register micro-kernel: two output rows gain
// four consecutive reduction terms each, the masked tap loads shared. The
// four adds per element are separate statements on one accumulator,
// preserving the ascending-j chain.
func fwdAxpy4x2(a, b, wa, wb []float64, taps [][]float64, masks [][]uint64) {
	wa0, wa1, wa2, wa3 := wa[0], wa[1], wa[2], wa[3]
	wb0, wb1, wb2, wb3 := wb[0], wb[1], wb[2], wb[3]
	n := len(a)
	b = b[:n]
	c0, c1, c2, c3 := taps[0][:n], taps[1][:n], taps[2][:n], taps[3][:n]
	m0, m1, m2, m3 := masks[0][:n], masks[1][:n], masks[2][:n], masks[3][:n]
	for i := range a {
		x0, x1 := lane(c0[i], m0[i]), lane(c1[i], m1[i])
		x2, x3 := lane(c2[i], m2[i]), lane(c3[i], m3[i])
		s := a[i]
		s += float64(wa0 * x0)
		s += float64(wa1 * x1)
		s += float64(wa2 * x2)
		s += float64(wa3 * x3)
		a[i] = s
		u := b[i]
		u += float64(wb0 * x0)
		u += float64(wb1 * x1)
		u += float64(wb2 * x2)
		u += float64(wb3 * x3)
		b[i] = u
	}
}

// fwdAxpy4 is the single-row tail of fwdAxpy4x2 for odd output-channel
// counts.
func fwdAxpy4(a, wa []float64, taps [][]float64, masks [][]uint64) {
	wa0, wa1, wa2, wa3 := wa[0], wa[1], wa[2], wa[3]
	n := len(a)
	c0, c1, c2, c3 := taps[0][:n], taps[1][:n], taps[2][:n], taps[3][:n]
	m0, m1, m2, m3 := masks[0][:n], masks[1][:n], masks[2][:n], masks[3][:n]
	for i := range a {
		s := a[i]
		s += float64(wa0 * lane(c0[i], m0[i]))
		s += float64(wa1 * lane(c1[i], m1[i]))
		s += float64(wa2 * lane(c2[i], m2[i]))
		s += float64(wa3 * lane(c3[i], m3[i]))
		a[i] = s
	}
}

// axpyMasked accumulates dst += w·(src under mask) elementwise.
func axpyMasked(dst []float64, w float64, src []float64, mask []uint64) {
	src, mask = src[:len(dst)], mask[:len(dst)]
	for i := range dst {
		dst[i] += float64(w * lane(src[i], mask[i]))
	}
}

// axpy accumulates dst += w·src elementwise.
func axpy(dst []float64, w float64, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += float64(w * src[i])
	}
}

// convFwdTile accumulates the K³ masked taps of one input channel into
// the output panel of tile [t0, t1): ascending-j blocks of four, paired
// output channels. taps and masks come from fwdTaps for the same tile;
// jBase is the flat reduction index of (ic, 0, 0, 0).
func convFwdTile(out, w []float64, taps [][]float64, masks [][]uint64, sh convShape, jBase, t0, t1 int) {
	if hasAVX2 {
		convFwdTileAVX2(out, w, taps, masks, sh, jBase, t0, t1)
		return
	}
	N, J, outC := sh.n(), sh.j(), sh.outC
	k3 := len(taps)
	jj := 0
	for ; jj+4 <= k3; jj += 4 {
		c, mk := taps[jj:jj+4], masks[jj:jj+4]
		oc := 0
		for ; oc+2 <= outC; oc += 2 {
			fwdAxpy4x2(out[oc*N+t0:oc*N+t1], out[(oc+1)*N+t0:(oc+1)*N+t1],
				w[oc*J+jBase+jj:], w[(oc+1)*J+jBase+jj:], c, mk)
		}
		if oc < outC {
			fwdAxpy4(out[oc*N+t0:oc*N+t1], w[oc*J+jBase+jj:], c, mk)
		}
	}
	for ; jj < k3; jj++ {
		for oc := 0; oc < outC; oc++ {
			axpyMasked(out[oc*N+t0:oc*N+t1], w[oc*J+jBase+jj], taps[jj], masks[jj])
		}
	}
}

// forwardTile computes the output panel of tile [t0, t1): bias-initialised,
// then accumulated one input channel at a time (global j order stays
// ascending: ic-major, tap-minor). Any tile with 0 ≤ t0 < t1 ≤ N and
// t1−t0 ≤ convTile works; convForward uses the convTile grid.
func forwardTile(out, x, w, bias []float64, sh convShape, sc *convScratch, t0, t1 int) {
	N, k := sh.n(), sh.k
	for oc := 0; oc < sh.outC; oc++ {
		seg := out[oc*N+t0 : oc*N+t1]
		var b float64
		if bias != nil {
			b = bias[oc]
		}
		for i := range seg {
			seg[i] = b
		}
	}
	planes := sc.ensure(k*k, convTile+2*(k/2))
	taps, masks := sc.fwdTaps(planes, sh, t0, t1)
	for ic := 0; ic < sh.inC; ic++ {
		xc := x[ic*N : (ic+1)*N]
		if k == 1 {
			taps[0] = xc[t0:t1]
		} else {
			buildPlanes(planes, xc, sh, t0, t1)
		}
		convFwdTile(out, w, taps, masks, sh, ic*k*k*k, t0, t1)
	}
}

// convForward runs the full forward pass: position tiles sharded over the
// worker pool by multiply-add work.
func convForward(out, x, w, bias []float64, sh convShape) {
	N := sh.n()
	nTiles := (N + convTile - 1) / convTile
	parallel.ForWork(sh.macs(), nTiles, func(_, tlo, thi int) {
		sc := scratchPool.Get().(*convScratch)
		for t := tlo; t < thi; t++ {
			forwardTile(out, x, w, bias, sh, sc, t*convTile, min((t+1)*convTile, N))
		}
		scratchPool.Put(sc)
	})
}

// dot2 returns the dot products of g with two patch rows, sharing the g
// loads; each accumulates in ascending position order.
func dot2(c0, c1, g []float64) (float64, float64) {
	c0 = c0[:len(g)]
	c1 = c1[:len(g)]
	var a0, a1 float64
	for i := range g {
		gv := g[i]
		a0 += float64(gv * c0[i])
		a1 += float64(gv * c1[i])
	}
	return a0, a1
}

// dot returns the dot product of g with one patch row.
func dot(c, g []float64) float64 {
	c = c[:len(g)]
	var a float64
	for i := range g {
		a += float64(g[i] * c[i])
	}
	return a
}

// colGrad4 accumulates four patch-gradient rows: cX += w[X]·g.
func colGrad4(c0, c1, c2, c3, w, g []float64) {
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	c0 = c0[:len(g)]
	c1 = c1[:len(g)]
	c2 = c2[:len(g)]
	c3 = c3[:len(g)]
	for i := range g {
		gv := g[i]
		c0[i] += float64(w0 * gv)
		c1[i] += float64(w1 * gv)
		c2[i] += float64(w2 * gv)
		c3[i] += float64(w3 * gv)
	}
}

// convBackwardIC computes gradX[ic] and the gradW column block of input
// channel ic. Per tile it rebuilds the channel's patch rows, takes the
// gradW dot products (positions ascending per (oc, tap), tiles ascending),
// accumulates the patch-gradient rows over ascending output channels, and
// scatter-adds them back (col2im): the exact transpose of the forward
// flat-shift, with the padding taps' gradients zeroed first.
func convBackwardIC(gradX, gradW, x, w, gradOut []float64, sh convShape, ic int, colRows, cgRows [][]float64) {
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
func convBackward(gradX, gradW, gradB, x, w, gradOut []float64, sh convShape) {
	N := sh.n()
	k3 := sh.k * sh.k * sh.k
	parallel.ForWork(sh.outC*N, sh.outC, func(_, lo, hi int) {
		for oc := lo; oc < hi; oc++ {
			g := gradOut[oc*N : (oc+1)*N]
			var sum float64
			for _, v := range g {
				sum += v
			}
			gradB[oc] = sum
		}
	})
	parallel.ForWork(2*sh.macs(), sh.inC, func(_, lo, hi int) {
		sc := scratchPool.Get().(*convScratch)
		rows := sc.ensure(2*k3, convTile)
		colRows, cgRows := rows[:k3], rows[k3:]
		for ic := lo; ic < hi; ic++ {
			convBackwardIC(gradX, gradW, x, w, gradOut, sh, ic, colRows, cgRows)
		}
		scratchPool.Put(sc)
	})
}
