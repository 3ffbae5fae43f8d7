//go:build amd64 && !purego

package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The assembly panels must equal the generic Go chain bit for bit: the
// same ascending-tap sequence of masked loads, rounded products and
// rounded sums in every lane (NaN payloads aside; see sameBits).

func requireAVX2(t testing.TB) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("CPU without AVX2: the assembly kernels are not in use")
	}
}

// withGoKernels runs fn with the assembly switched off, so convFwdTile
// takes the generic Go path.
func withGoKernels(fn func()) {
	prev := hasAVX2
	hasAVX2 = false
	defer func() { hasAVX2 = prev }()
	fn()
}

// panel2 and panel1 run the assembly panels on a case whose lengths the
// test made consistent: n = len(a), k3 = len(wa).
func panel2(a, b, wa, wb []float64, taps [][]float64, masks [][]uint64) {
	if len(a) > 0 {
		panel2F64(a, b, wa, wb, taps, masks, len(wa), len(a))
	}
}

func panel1(a, wa []float64, taps [][]float64, masks [][]uint64) {
	if len(a) > 0 {
		panel1F64(a, wa, taps, masks, len(wa), len(a))
	}
}

// refPanel2 is the generic Go path of convFwdTile for one pair of output
// channels: four-tap fwdAxpy4x2 blocks, then the axpyMasked tail.
func refPanel2(a, b, wa, wb []float64, taps [][]float64, masks [][]uint64) {
	k3 := len(wa)
	jj := 0
	for ; jj+4 <= k3; jj += 4 {
		fwdAxpy4x2(a, b, wa[jj:], wb[jj:], taps[jj:jj+4], masks[jj:jj+4])
	}
	for ; jj < k3; jj++ {
		axpyMasked(a, wa[jj], taps[jj], masks[jj])
		axpyMasked(b, wb[jj], taps[jj], masks[jj])
	}
}

// refPanel1 is refPanel2 for an odd last channel: fwdAxpy4, then
// axpyMasked.
func refPanel1(a, wa []float64, taps [][]float64, masks [][]uint64) {
	k3 := len(wa)
	jj := 0
	for ; jj+4 <= k3; jj += 4 {
		fwdAxpy4(a, wa[jj:], taps[jj:jj+4], masks[jj:jj+4])
	}
	for ; jj < k3; jj++ {
		axpyMasked(a, wa[jj], taps[jj], masks[jj])
	}
}

// specials are the IEEE edge values the kernels must carry through the
// chain exactly like the scalar code: NaN, ±Inf, −0 and subnormals.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -5e-324, 2.2250738585072e-308, math.SmallestNonzeroFloat32,
	-1e-40, math.MaxFloat64, 1e38,
}

// panelCase holds the inputs of one panel check, carved at an offset out
// of larger buffers so the kernels also see unaligned sub-slices.
type panelCase struct {
	a, b, wa, wb []float64
	taps         [][]float64
	masks        [][]uint64
}

// newPanelCase draws the values from next and a lane mask per tap
// element from r: about one lane in four is masked, and half of those
// hold NaN or ±Inf, which the mask must turn into +0.
func newPanelCase(r *rand.Rand, next func() float64, n, k3, off int) panelCase {
	vec := func(l int) []float64 {
		buf := make([]float64, l+off+3)
		for i := range buf {
			buf[i] = next()
		}
		return buf[off : off+l]
	}
	c := panelCase{a: vec(n), b: vec(n), wa: vec(k3), wb: vec(k3)}
	c.taps = make([][]float64, k3)
	c.masks = make([][]uint64, k3)
	for j := range c.taps {
		c.taps[j] = vec(n)
		c.masks[j] = make([]uint64, n+off)[off:]
		for i := range c.masks[j] {
			switch r.Intn(8) {
			case 0:
				c.taps[j][i] = wrapSpecials[r.Intn(len(wrapSpecials))]
			case 1:
			default:
				c.masks[j][i] = math.MaxUint64
			}
		}
	}
	return c
}

// zeroed returns the case's taps with every masked lane replaced by +0
// and all-ones masks: what the K³-row im2col fed the panels.
func (c panelCase) zeroed() ([][]float64, [][]uint64) {
	taps := make([][]float64, len(c.taps))
	masks := make([][]uint64, len(c.taps))
	for j, row := range c.taps {
		taps[j] = make([]float64, len(row))
		masks[j] = make([]uint64, len(row))
		for i := range row {
			if c.masks[j][i] != 0 {
				taps[j][i] = row[i]
			}
			masks[j][i] = math.MaxUint64
		}
	}
	return taps, masks
}

// checkPanels runs panel2/panel1, the generic chain, and the generic
// chain over the zeroed taps on copies of the same case and compares
// every output element.
func checkPanels(t *testing.T, c panelCase) {
	t.Helper()
	cp := func(s []float64) []float64 { return append([]float64(nil), s...) }
	a, b, ra, rb, za, zb := cp(c.a), cp(c.b), cp(c.a), cp(c.b), cp(c.a), cp(c.b)
	panel2(a, b, c.wa, c.wb, c.taps, c.masks)
	refPanel2(ra, rb, c.wa, c.wb, c.taps, c.masks)
	zt, zm := c.zeroed()
	refPanel2(za, zb, c.wa, c.wb, zt, zm)
	one, rOne := cp(c.a), cp(c.a)
	panel1(one, c.wa, c.taps, c.masks)
	refPanel1(rOne, c.wa, c.taps, c.masks)
	for i := range a {
		if !sameBits(a[i], ra[i]) || !sameBits(b[i], rb[i]) || !sameBits(one[i], rOne[i]) {
			t.Fatalf("n=%d k3=%d: pos %d: panel2 (%v, %v) panel1 %v, Go chain (%v, %v) %v",
				len(a), len(c.wa), i, a[i], b[i], one[i], ra[i], rb[i], rOne[i])
		}
		if !sameBits(ra[i], za[i]) || !sameBits(rb[i], zb[i]) {
			t.Fatalf("n=%d k3=%d: pos %d: masked chain (%v, %v), zeroed taps (%v, %v)",
				len(a), len(c.wa), i, ra[i], rb[i], za[i], zb[i])
		}
	}
}

// panelNs covers every n mod 16 (so every block remainder), tile-sized
// panels and the range up to 300.
var panelNs = func() []int {
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 63, 64, 65, 127, 128, 129, 255, 256, 257, 299, 300)
}()

func TestConvPanelMatchesGoChain(t *testing.T) {
	requireAVX2(t)
	r := rand.New(rand.NewSource(31))
	normal := r.NormFloat64
	special := func() float64 {
		if r.Intn(8) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return r.NormFloat64()
	}
	for _, k3 := range []int{1, 27, 125} {
		for _, n := range panelNs {
			for _, next := range []func() float64{normal, special} {
				off := r.Intn(4)
				checkPanels(t, newPanelCase(r, next, n, k3, off))
			}
		}
	}
}

// TestMaskedTilesGoKernels runs the masked tile table of gemm_test.go on
// the generic Go kernels (TestMaskedTileMatchesDirect runs it on the
// assembly).
func TestMaskedTilesGoKernels(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	withGoKernels(func() {
		for _, c := range maskedTileCases {
			checkMaskedTile(t, r, c)
		}
	})
}

// TestConvPanelBoundsChecked pins the forward tile's checks on both
// kernels: a tap, mask, output or weight slice shorter than the tile
// reads, or too few masks, panics before a kernel can read or write past
// its length. The short slices keep spare capacity, which a slice
// expression alone would accept.
func TestConvPanelBoundsChecked(t *testing.T) {
	requireAVX2(t)
	sh := convShape{inC: 1, outC: 3, h: 2, v: 2, m: 4, k: 3}
	out, w := make([]float64, sh.outC*sh.n()), make([]float64, sh.outC*sh.j())
	c := newPanelCase(rand.New(rand.NewSource(1)), func() float64 { return 1 }, 16, 27, 0)
	short := append([][]float64(nil), c.taps...)
	short[26] = short[26][:15]
	shortMask := append([][]uint64(nil), c.masks...)
	shortMask[26] = shortMask[26][:15]
	for _, kernel := range []struct {
		name string
		tile func(out, w []float64, taps [][]float64, masks [][]uint64)
	}{
		{"assembly", func(out, w []float64, taps [][]float64, masks [][]uint64) {
			convFwdTileAVX2(out, w, taps, masks, sh, 0, 0, 16)
		}},
		{"go", func(out, w []float64, taps [][]float64, masks [][]uint64) {
			withGoKernels(func() { convFwdTile(out, w, taps, masks, sh, 0, 0, 16) })
		}},
	} {
		mustPanic := func(name string, fn func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("%s kernel, %s: no panic", kernel.name, name)
				}
			}()
			fn()
		}
		mustPanic("short tap", func() { kernel.tile(out, w, short, c.masks) })
		mustPanic("short mask", func() { kernel.tile(out, w, c.taps, shortMask) })
		mustPanic("few masks", func() { kernel.tile(out, w, c.taps, c.masks[:26]) })
		mustPanic("short output", func() { kernel.tile(out[:40], w, c.taps, c.masks) })
		mustPanic("short weights", func() { kernel.tile(out, w[:80], c.taps, c.masks) })
		kernel.tile(out, w, c.taps, c.masks)
	}
}

// FuzzConvPanel runs the assembly panels against the generic chain on
// fuzzed lengths, offsets, lane masks and raw IEEE bit patterns, so NaN,
// ±Inf, −0 and subnormals all occur, in read and in masked lanes. It then
// checks one fuzzed forward tile (M ∈ {1, …, 5}, K ∈ {1, 3, 5}, any t0
// and width) on both kernels against the textbook direct convolution.
func FuzzConvPanel(f *testing.F) {
	seed := make([]byte, 0, 8*len(specials))
	for _, v := range specials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	for _, n := range []uint16{0, 1, 7, 8, 9, 15, 16, 17, 256, 300} {
		f.Add(seed, n, uint8(n%3), uint8(n%4), uint8(n))
	}
	f.Add([]byte{}, uint16(33), uint8(1), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, n16 uint16, k3Sel, off8, shape uint8) {
		requireAVX2(t)
		n := int(n16 % 301)
		k := []int{1, 3, 5}[k3Sel%3]
		off := int(off8 % 4)
		r := rand.New(rand.NewSource(int64(n16)<<24 | int64(k3Sel)<<16 | int64(off8)<<8 | int64(shape)))
		i := 0
		next := func() float64 {
			// Raw bit patterns from the fuzz data, interleaved with
			// ordinary values so most chains stay finite.
			if len(data) >= 8 && r.Intn(2) == 0 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[i%(len(data)-7):]))
				i++
				return v
			}
			return r.NormFloat64()
		}
		checkPanels(t, newPanelCase(r, next, n, k*k*k, off))

		c := convCase{inC: 1 + int(off8%2), outC: 1 + int(off8%3), h: 2 + int(shape/5%4),
			v: 1 + int(shape/20%4), m: 1 + int(shape%5), k: k}
		N := c.h * c.v * c.m
		t0 := int(n16) % N
		tc := tileCase{c, t0, t0 + 1 + int(n16>>8)%(N-t0)}
		checkMaskedTile(t, rand.New(rand.NewSource(int64(n16))), tc)
		withGoKernels(func() { checkMaskedTile(t, rand.New(rand.NewSource(int64(n16))), tc) })
	})
}

// TestConv3DAssemblyMatchesGo checks whole convolutions with the assembly
// on against the generic Go path: odd output-channel counts, K = 1, 3 and
// 5, a single input channel, and position counts that are multiples of
// neither the tile width nor 8.
func TestConv3DAssemblyMatchesGo(t *testing.T) {
	requireAVX2(t)
	r := rand.New(rand.NewSource(32))
	cases := append([]convCase{
		{inC: 3, outC: 5, h: 17, v: 13, m: 3, k: 3},
		{inC: 1, outC: 3, h: 11, v: 9, m: 3, k: 5},
		{inC: 2, outC: 1, h: 15, v: 10, m: 2, k: 1},
		{inC: 4, outC: 2, h: 16, v: 16, m: 4, k: 3},
	}, convCases...)
	for _, c := range cases {
		x := randTensor(r, c.inC, c.h, c.v, c.m)
		w := randTensor(r, c.outC, c.inC, c.k, c.k, c.k)
		b := randTensor(r, c.outC)
		got := Conv3D(x, w, b)
		var want *Tensor
		withGoKernels(func() { want = Conv3D(x, w, b) })
		for i := range want.Data {
			if !sameBits(got.Data[i], want.Data[i]) {
				t.Fatalf("case %+v: out[%d] = %v, Go path %v", c, i, got.Data[i], want.Data[i])
			}
		}
	}
}
