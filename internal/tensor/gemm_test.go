package tensor

import (
	"math/rand"
	"testing"
)

// TestConv3DBitEqualNaive pins the im2col-GEMM kernel to the 7-loop naive
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
