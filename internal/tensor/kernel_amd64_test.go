//go:build amd64 && !purego

package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The assembly panels must equal the generic Go chain bit for bit: the
// same ascending-tap sequence of rounded products and rounded sums in every
// lane. The one exception is NaN versus NaN. When both operands of an x86
// add or multiply are NaN, the result carries the payload of the first
// source operand, and the Go compiler and the assembly may order the
// operands differently, so only NaN-ness is compared there.

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

// refPanel2 is the generic Go path of convFwdTile for one pair of output
// channels: four-tap fwdAxpy4x2 blocks, then the axpy tail.
func refPanel2(a, b, wa, wb []float64, rows [][]float64) {
	k3 := len(wa)
	jj := 0
	for ; jj+4 <= k3; jj += 4 {
		fwdAxpy4x2(a, b, wa[jj:], wb[jj:], rows[jj], rows[jj+1], rows[jj+2], rows[jj+3])
	}
	for ; jj < k3; jj++ {
		axpy(a, wa[jj], rows[jj])
		axpy(b, wb[jj], rows[jj])
	}
}

// refPanel1 is refPanel2 for an odd last channel: fwdAxpy4, then axpy.
func refPanel1(a, wa []float64, rows [][]float64) {
	k3 := len(wa)
	jj := 0
	for ; jj+4 <= k3; jj += 4 {
		fwdAxpy4(a, wa[jj:], rows[jj], rows[jj+1], rows[jj+2], rows[jj+3])
	}
	for ; jj < k3; jj++ {
		axpy(a, wa[jj], rows[jj])
	}
}

// sameBits reports whether x and y have identical bits, or are both NaN.
func sameBits(x, y float64) bool {
	if x != x {
		return y != y
	}
	return math.Float64bits(x) == math.Float64bits(y)
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
	rows         [][]float64
}

func newPanelCase(next func() float64, n, k3, off int) panelCase {
	vec := func(l int) []float64 {
		buf := make([]float64, l+off+3)
		for i := range buf {
			buf[i] = next()
		}
		return buf[off : off+l]
	}
	c := panelCase{a: vec(n), b: vec(n), wa: vec(k3), wb: vec(k3)}
	c.rows = make([][]float64, k3)
	for j := range c.rows {
		c.rows[j] = vec(n)
	}
	return c
}

// checkPanels runs panel2/panel1 and the generic chain on copies of the
// same case and compares every output element.
func checkPanels(t *testing.T, c panelCase) {
	t.Helper()
	a, b := append([]float64(nil), c.a...), append([]float64(nil), c.b...)
	ra, rb := append([]float64(nil), c.a...), append([]float64(nil), c.b...)
	panel2(a, b, c.wa, c.wb, c.rows)
	refPanel2(ra, rb, c.wa, c.wb, c.rows)
	one, rOne := append([]float64(nil), c.a...), append([]float64(nil), c.a...)
	panel1(one, c.wa, c.rows)
	refPanel1(rOne, c.wa, c.rows)
	for i := range a {
		if !sameBits(a[i], ra[i]) || !sameBits(b[i], rb[i]) || !sameBits(one[i], rOne[i]) {
			t.Fatalf("n=%d k3=%d: pos %d: panel2 (%v, %v) panel1 %v, Go chain (%v, %v) %v",
				len(a), len(c.wa), i, a[i], b[i], one[i], ra[i], rb[i], rOne[i])
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
				checkPanels(t, newPanelCase(next, n, k3, off))
			}
		}
	}
}

// TestConvPanelBoundsChecked pins the wrappers' checks: a slice shorter
// than the panel panics before the assembly can read past it.
func TestConvPanelBoundsChecked(t *testing.T) {
	requireAVX2(t)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	c := newPanelCase(func() float64 { return 1 }, 16, 27, 0)
	short := append([][]float64(nil), c.rows...)
	short[26] = short[26][:15:15]
	mustPanic("short row", func() { panel2(c.a, c.b, c.wa, c.wb, short) })
	mustPanic("short row, panel1", func() { panel1(c.a, c.wa, short) })
	mustPanic("few rows", func() { panel2(c.a, c.b, c.wa, c.wb, c.rows[:26]) })
	mustPanic("short b", func() { panel2(c.a, c.b[:15:15], c.wa, c.wb, c.rows) })
	mustPanic("short wb", func() { panel2(c.a, c.b, c.wa, c.wb[:26:26], c.rows) })
}

// FuzzConvPanel runs the assembly panels against the generic chain on
// fuzzed lengths, offsets and raw IEEE bit patterns, so NaN, ±Inf, −0 and
// subnormals all occur.
func FuzzConvPanel(f *testing.F) {
	seed := make([]byte, 0, 8*len(specials))
	for _, v := range specials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	for _, n := range []uint16{0, 1, 7, 8, 9, 15, 16, 17, 256, 300} {
		f.Add(seed, n, uint8(n%3), uint8(n%4))
	}
	f.Add([]byte{}, uint16(33), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, n16 uint16, k3Sel, off8 uint8) {
		requireAVX2(t)
		n := int(n16 % 301)
		k3 := []int{1, 27, 125}[k3Sel%3]
		off := int(off8 % 4)
		r := rand.New(rand.NewSource(int64(n16)<<16 | int64(k3Sel)<<8 | int64(off8)))
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
		checkPanels(t, newPanelCase(next, n, k3, off))
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
