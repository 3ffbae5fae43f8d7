package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestConv3DBitEqualNaive pins the GEMM kernel to the 7-loop naive
// reference bit-for-bit: the GEMM accumulates every output element in the
// same ascending (ic, kh, kv, km) order from the same bias start, so the
// float64 results must be identical, not merely close — at every worker
// count. convCases covers K ∈ {1, 3, 5}, non-square H/V/M including
// degenerate 1-wide dims, and single-channel InC/OutC edges.
func TestConv3DBitEqualNaive(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, c := range convCases {
		x := randTensor(r, c.inC, c.h, c.v, c.m)
		w := randTensor(r, c.outC, c.inC, c.k, c.k, c.k)
		b := randTensor(r, c.outC)
		for _, bias := range []*Tensor{b, nil} {
			want := naiveConv3D(x, w, bias)
			got := Conv3D(x, w, bias)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("case %+v bias=%v: serial out[%d] = %v, naive %v",
						c, bias != nil, i, got.Data[i], want.Data[i])
				}
			}
			for _, nw := range workerCounts {
				forceParallel(t, nw, func() {
					got := Conv3D(x, w, bias)
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("case %+v bias=%v workers=%d: out[%d] = %v, naive %v",
								c, bias != nil, nw, i, got.Data[i], want.Data[i])
						}
					}
				})
			}
		}
	}
}

// TestArenaReuseAndReset pins the arena contract: allocations are zeroed,
// Reset recycles the same backing memory instead of growing, and the nil
// arena degrades to plain heap allocation.
func TestArenaReuseAndReset(t *testing.T) {
	a := NewArena()

	t1 := a.New(2, 3)
	for i := range t1.Data {
		t1.Data[i] = 7
	}
	t2 := a.New(4)
	if &t1.Data[0] == &t2.Data[0] {
		t.Fatal("distinct live allocations share backing memory")
	}

	a.Reset()
	t3 := a.New(2, 3)
	if &t3.Data[0] != &t1.Data[0] {
		t.Fatal("Reset did not recycle the first slab")
	}
	for i, v := range t3.Data {
		if v != 0 {
			t.Fatalf("recycled tensor not zeroed at %d: %v", i, v)
		}
	}

	var nilArena *Arena
	nilArena.Reset() // must not panic
	h := nilArena.New(3)
	if h.Len() != 3 {
		t.Fatalf("nil-arena New len = %d, want 3", h.Len())
	}
}

// TestConvAllocsPerOp pins the near-zero-allocation property of the
// arena-backed kernels: at most 10 heap allocations per op (the outputs
// and the parallel-callback closures; all scratch comes from the arena or
// the pooled im2col buffers).
func TestConvAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	r := rand.New(rand.NewSource(24))
	x := randTensor(r, 8, 16, 16, 4)
	w := randTensor(r, 8, 8, 3, 3, 3)
	b := randTensor(r, 8)
	a := NewArena()

	// Warm up slabs and the scratch pool.
	Conv3DIn(a, x, w, b)
	Conv3DBackwardIn(a, x, w, Conv3DIn(a, x, w, b))

	fwd := testing.AllocsPerRun(10, func() {
		a.Reset()
		Conv3DIn(a, x, w, b)
	})
	if fwd > 10 {
		t.Errorf("Conv3DIn allocates %.0f/op, want <= 10", fwd)
	}

	out := Conv3DIn(a, x, w, b)
	bwd := testing.AllocsPerRun(10, func() {
		Conv3DBackward(x, w, out)
	})
	if bwd > 10 {
		t.Errorf("Conv3DBackward allocates %.0f/op, want <= 10", bwd)
	}

	pool := testing.AllocsPerRun(10, func() {
		a.Reset()
		AvgPool2In(a, x)
	})
	if pool > 10 {
		t.Errorf("AvgPool2In allocates %.0f/op, want <= 10", pool)
	}
}

// sameBits reports whether x and y have identical bits, or are both NaN.
// When both operands of an x86 add or multiply are NaN, the result carries
// the payload of the first source operand, and the Go compiler and the
// assembly may order the operands differently, so only NaN-ness is
// compared there.
func sameBits(x, y float64) bool {
	if x != x {
		return y != y
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// wrapSpecials are planted where a dm tap's flat shift wraps into a
// neighbouring M-row or off the volume: under a zero lane mask each must
// contribute exactly +0.
var wrapSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// tileCase is one forward tile [t0, t1) of a random convolution.
type tileCase struct {
	convCase
	t0, t1 int
}

// maskedTileCases covers M ∈ {1, …, 5} and K ∈ {1, 3, 5} with tiles at
// both ends of the volume and inside it, widths that are not multiples of
// 8 (the panels' scalar tail), t0 not a multiple of M, and an odd
// output-channel count (the one-output panel).
var maskedTileCases = func() []tileCase {
	var cs []tileCase
	for m := 1; m <= 5; m++ {
		for _, k := range []int{1, 3, 5} {
			c := convCase{inC: 2, outC: 3, h: 5, v: 4, m: m, k: k}
			n := c.h * c.v * c.m
			for _, span := range [][2]int{{0, 13}, {1, n - 2}, {n - 11, n}, {7, 26}, {0, n}} {
				cs = append(cs, tileCase{c, span[0], min(span[1], n)})
			}
		}
	}
	return cs
}()

// initTile fills the output panel of tile [t0, t1) with the bias.
func initTile(out, bias []float64, sh convShape, t0, t1 int) {
	N := sh.n()
	for oc := 0; oc < sh.outC; oc++ {
		for p := t0; p < t1; p++ {
			out[oc*N+p] = bias[oc]
		}
	}
}

// im2colTile is the forward tile as the K³-row im2col it replaces
// computed it: buildColsIC's patch rows, zero where a tap leaves the
// volume, under all-ones masks.
func im2colTile(out, x, w, bias []float64, sh convShape, t0, t1 int) {
	initTile(out, bias, sh, t0, t1)
	k3, T := sh.k*sh.k*sh.k, t1-t0
	rows := new(convScratch).ensure(k3, T)
	ones := make([]uint64, T)
	for i := range ones {
		ones[i] = math.MaxUint64
	}
	masks := make([][]uint64, k3)
	for j := range masks {
		masks[j] = ones
	}
	N := sh.n()
	for ic := 0; ic < sh.inC; ic++ {
		buildColsIC(rows, x[ic*N:(ic+1)*N], sh, t0, t1)
		convFwdTile(out, w, rows, masks, sh, ic*k3, t0, t1)
	}
}

// plantedTile is forwardTile with every plane lane that no tap reads under
// a set mask — the margin lanes past the tile and the volume, the M-row
// neighbours the dm taps wrap into — overwritten by NaN or ±Inf.
func plantedTile(r *rand.Rand, out, x, w, bias []float64, sh convShape, t0, t1 int) {
	initTile(out, bias, sh, t0, t1)
	N, k, T := sh.n(), sh.k, t1-t0
	sc := new(convScratch)
	planes := sc.ensure(k*k, convTile+2*(k/2))
	taps, masks := sc.fwdTaps(planes, sh, t0, t1)
	for ic := 0; ic < sh.inC; ic++ {
		xc := x[ic*N : (ic+1)*N]
		if k == 1 {
			taps[0] = xc[t0:t1]
		} else {
			buildPlanes(planes, xc, sh, t0, t1)
			for _, row := range planes {
				for q := 0; q < T+k-1; q++ {
					read := false
					for km := 0; km < k; km++ {
						if i := q - km; i >= 0 && i < T && masks[km][i] != 0 {
							read = true
						}
					}
					if !read {
						row[q] = wrapSpecials[r.Intn(len(wrapSpecials))]
					}
				}
			}
		}
		convFwdTile(out, w, taps, masks, sh, ic*k*k*k, t0, t1)
	}
}

// checkMaskedTile runs tile c of a random convolution whose input holds
// NaN and ±Inf at a few M-row ends, where the dm taps of the neighbouring
// M-rows wrap. forwardTile, plantedTile and im2colTile must all give, at
// every position of the tile, the textbook direct convolution's value.
func checkMaskedTile(t *testing.T, r *rand.Rand, c tileCase) {
	t.Helper()
	x := randTensor(r, c.inC, c.h, c.v, c.m)
	w := randTensor(r, c.outC, c.inC, c.k, c.k, c.k)
	b := randTensor(r, c.outC)
	for range 3 {
		pos := r.Intn(len(x.Data)/c.m) * c.m
		if r.Intn(2) == 0 {
			pos += c.m - 1
		}
		x.Data[pos] = wrapSpecials[r.Intn(len(wrapSpecials))]
	}
	sh := convShape{inC: c.inC, outC: c.outC, h: c.h, v: c.v, m: c.m, k: c.k}
	want := naiveConv3D(x, w, b).Data
	got := make([]float64, len(want))
	forwardTile(got, x.Data, w.Data, b.Data, sh, new(convScratch), c.t0, c.t1)
	planted := make([]float64, len(want))
	plantedTile(r, planted, x.Data, w.Data, b.Data, sh, c.t0, c.t1)
	old := make([]float64, len(want))
	im2colTile(old, x.Data, w.Data, b.Data, sh, c.t0, c.t1)
	N := sh.n()
	for oc := 0; oc < c.outC; oc++ {
		for p := c.t0; p < c.t1; p++ {
			i := oc*N + p
			if !sameBits(got[i], want[i]) || !sameBits(planted[i], want[i]) || !sameBits(old[i], want[i]) {
				t.Fatalf("%+v: oc %d pos %d: tile %v, planted %v, im2col %v, direct %v",
					c, oc, p, got[i], planted[i], old[i], want[i])
			}
		}
	}
}

// TestMaskedTileMatchesDirect pins the masked forward tile to the
// textbook direct convolution and to the im2col it replaces, with NaN and
// ±Inf in the wrapped lanes.
func TestMaskedTileMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for _, c := range maskedTileCases {
		checkMaskedTile(t, r, c)
	}
}
