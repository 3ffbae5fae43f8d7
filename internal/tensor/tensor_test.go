package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewAndAccessors(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("len=%d rank=%d dim1=%d", x.Len(), x.Rank(), x.Dim(1))
	}
	x.Set(7.5, 1, 2, 3)
	if x.At(1, 2, 3) != 7.5 {
		t.Error("Set/At round trip failed")
	}
	if x.At(0, 0, 0) != 0 {
		t.Error("fresh tensor should be zero")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At should panic")
		}
	}()
	x.At(0, 2)
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive dim should panic")
		}
	}()
	New(2, 0)
}

func TestFromSliceAndReshape(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	if x.At(1, 2) != 6 {
		t.Error("FromSlice layout wrong")
	}
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Error("Reshape layout wrong")
	}
	y.Data[0] = 99
	if x.Data[0] != 99 {
		t.Error("Reshape should be a view")
	}
	defer func() {
		if recover() == nil {
			t.Error("volume-changing reshape should panic")
		}
	}()
	x.Reshape(5)
}

func TestCloneZeroFillOps(t *testing.T) {
	x := FromSlice([]float64{1, -2, 3}, 3)
	c := x.Clone()
	c.Data[0] = 50
	if x.Data[0] != 1 {
		t.Error("Clone should be deep")
	}
	if x.Sum() != 2 {
		t.Errorf("Sum = %v", x.Sum())
	}
	if x.MaxAbs() != 3 {
		t.Errorf("MaxAbs = %v", x.MaxAbs())
	}
	x.Scale(2)
	if x.Data[1] != -4 {
		t.Error("Scale failed")
	}
	y := FromSlice([]float64{10, 10, 10}, 3)
	x.AddScaled(y, 0.5)
	if x.Data[0] != 2+5 {
		t.Errorf("AddScaled: %v", x.Data)
	}
	x.Fill(9)
	x.Zero()
	if x.Sum() != 0 {
		t.Error("Zero failed")
	}
}

func TestConv3DIdentityKernel(t *testing.T) {
	// A 1x1x... kernel of a single 1 at the centre copies the input.
	x := randTensor(rand.New(rand.NewSource(1)), 2, 3, 4, 5)
	w := New(2, 2, 3, 3, 3)
	w.Set(1, 0, 0, 1, 1, 1)
	w.Set(1, 1, 1, 1, 1, 1)
	out := Conv3D(x, w, nil)
	if !out.SameShape(x) {
		t.Fatalf("out shape %v", out.Shape)
	}
	for i := range x.Data {
		if math.Abs(out.Data[i]-x.Data[i]) > 1e-12 {
			t.Fatalf("identity kernel changed data at %d", i)
		}
	}
}

func TestConv3DBias(t *testing.T) {
	x := New(1, 2, 2, 2)
	w := New(3, 1, 3, 3, 3)
	b := FromSlice([]float64{1, 2, 3}, 3)
	out := Conv3D(x, w, b)
	for oc := 0; oc < 3; oc++ {
		if out.At(oc, 0, 0, 0) != float64(oc+1) {
			t.Errorf("bias channel %d = %v", oc, out.At(oc, 0, 0, 0))
		}
	}
}

func TestConv3DHandKernel(t *testing.T) {
	// Single-channel 3x1x1 input, kernel averaging left+right neighbours.
	x := FromSlice([]float64{1, 2, 4}, 1, 3, 1, 1)
	w := New(1, 1, 3, 3, 3)
	w.Set(1, 0, 0, 0, 1, 1) // left neighbour (kh=0 => dh=-1)
	w.Set(1, 0, 0, 2, 1, 1) // right neighbour
	out := Conv3D(x, w, nil)
	want := []float64{2, 5, 2} // zero padded outside
	for i, v := range want {
		if math.Abs(out.Data[i]-v) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func randTensor(r *rand.Rand, shape ...int) *Tensor {
	x := New(shape...)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	return x
}

// numGrad computes the finite-difference gradient of f wrt x.
func numGrad(f func() float64, x *Tensor) *Tensor {
	const eps = 1e-5
	g := New(x.Shape...)
	for i := range x.Data {
		old := x.Data[i]
		x.Data[i] = old + eps
		hi := f()
		x.Data[i] = old - eps
		lo := f()
		x.Data[i] = old
		g.Data[i] = (hi - lo) / (2 * eps)
	}
	return g
}

func maxDiff(a, b *Tensor) float64 {
	m := 0.0
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestConv3DGradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := randTensor(r, 2, 3, 4, 3)
	w := randTensor(r, 3, 2, 3, 3, 3)
	b := randTensor(r, 3)
	// Loss = sum(out * mask) for a fixed random mask.
	mask := randTensor(r, 3, 3, 4, 3)
	loss := func() float64 {
		out := Conv3D(x, w, b)
		s := 0.0
		for i := range out.Data {
			s += float64(out.Data[i] * mask.Data[i])
		}
		return s
	}
	gx, gw, gb := Conv3DBackward(x, w, mask)
	if d := maxDiff(gx, numGrad(loss, x)); d > 1e-6 {
		t.Errorf("gradX max diff %v", d)
	}
	if d := maxDiff(gw, numGrad(loss, w)); d > 1e-6 {
		t.Errorf("gradW max diff %v", d)
	}
	if d := maxDiff(gb, numGrad(loss, b)); d > 1e-6 {
		t.Errorf("gradB max diff %v", d)
	}
}

// naiveConv3D is a direct 7-loop reference used to validate the optimised
// kernel over many shapes, including degenerate M=1 and V=1 planes.
func naiveConv3D(x, w, b *Tensor) *Tensor {
	inC, h, v, m := convDims(x)
	outC, k := convKernelDims(w, inC)
	p := k / 2
	out := New(outC, h, v, m)
	for oc := 0; oc < outC; oc++ {
		for hh := 0; hh < h; hh++ {
			for vv := 0; vv < v; vv++ {
				for mm := 0; mm < m; mm++ {
					acc := 0.0
					if b != nil {
						acc = b.Data[oc]
					}
					for ic := 0; ic < inC; ic++ {
						for kh := 0; kh < k; kh++ {
							for kv := 0; kv < k; kv++ {
								for km := 0; km < k; km++ {
									sh, sv, sm := hh+kh-p, vv+kv-p, mm+km-p
									if sh < 0 || sh >= h || sv < 0 || sv >= v || sm < 0 || sm >= m {
										continue
									}
									acc += float64(x.At(ic, sh, sv, sm) * w.At(oc, ic, kh, kv, km))
								}
							}
						}
					}
					out.Set(acc, oc, hh, vv, mm)
				}
			}
		}
	}
	return out
}

func TestConv3DMatchesNaiveReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	shapes := [][4]int{
		{1, 1, 1, 1}, {1, 3, 3, 3}, {2, 4, 5, 1}, {2, 1, 6, 4},
		{3, 5, 1, 2}, {2, 2, 2, 2}, {1, 7, 3, 5}, {2, 3, 4, 2},
	}
	for _, s := range shapes {
		x := randTensor(r, s[0], s[1], s[2], s[3])
		w := randTensor(r, 3, s[0], 3, 3, 3)
		b := randTensor(r, 3)
		got := Conv3D(x, w, b)
		want := naiveConv3D(x, w, b)
		if d := maxDiff(got, want); d > 1e-10 {
			t.Errorf("shape %v: fast conv differs from reference by %v", s, d)
		}
	}
	// k = 5 exercises the generic path.
	x := randTensor(r, 2, 6, 6, 3)
	w := randTensor(r, 2, 2, 5, 5, 5)
	got := Conv3D(x, w, nil)
	want := naiveConv3D(x, w, nil)
	if d := maxDiff(got, want); d > 1e-10 {
		t.Errorf("k=5 conv differs from reference by %v", d)
	}
}

func TestAvgPool2DimsAndValues(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2, 1)
	out := AvgPool2(x)
	if out.Dim(1) != 1 || out.Dim(2) != 1 || out.Dim(3) != 1 {
		t.Fatalf("pooled shape %v", out.Shape)
	}
	if out.Data[0] != 2.5 {
		t.Errorf("pooled value = %v, want 2.5", out.Data[0])
	}
	// Odd dims use ceil semantics with partial windows.
	x2 := FromSlice([]float64{1, 2, 3}, 1, 3, 1, 1)
	out2 := AvgPool2(x2)
	if out2.Dim(1) != 2 {
		t.Fatalf("ceil pooling dims %v", out2.Shape)
	}
	if out2.Data[0] != 1.5 || out2.Data[1] != 3 {
		t.Errorf("ceil pooled = %v", out2.Data)
	}
}

func TestAvgPool2GradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randTensor(r, 2, 3, 5, 3)
	out0 := AvgPool2(x)
	mask := randTensor(r, out0.Shape...)
	loss := func() float64 {
		out := AvgPool2(x)
		s := 0.0
		for i := range out.Data {
			s += float64(out.Data[i] * mask.Data[i])
		}
		return s
	}
	gx := AvgPool2Backward(x.Shape, mask)
	if d := maxDiff(gx, numGrad(loss, x)); d > 1e-6 {
		t.Errorf("pool gradX max diff %v", d)
	}
}

func TestUpsampleNearestValues(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 1, 2, 1, 1)
	out := UpsampleNearest(x, 4, 1, 1)
	want := []float64{1, 1, 2, 2}
	for i, v := range want {
		if out.Data[i] != v {
			t.Errorf("upsampled[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
	// Round-trip shape with ceil pooling: pool 5 -> 3, upsample 3 -> 5.
	x2 := randTensor(rand.New(rand.NewSource(4)), 1, 5, 1, 1)
	p := AvgPool2(x2)
	u := UpsampleNearest(p, 5, 1, 1)
	if u.Dim(1) != 5 {
		t.Errorf("round trip dims %v", u.Shape)
	}
}

func TestUpsampleNearestGradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x := randTensor(r, 2, 3, 2, 2)
	mask := randTensor(r, 2, 5, 4, 3)
	loss := func() float64 {
		out := UpsampleNearest(x, 5, 4, 3)
		s := 0.0
		for i := range out.Data {
			s += float64(out.Data[i] * mask.Data[i])
		}
		return s
	}
	gx := UpsampleNearestBackward(x.Shape, mask)
	if d := maxDiff(gx, numGrad(loss, x)); d > 1e-6 {
		t.Errorf("upsample gradX max diff %v", d)
	}
}

func TestConcatSplit(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2, 1)
	b := FromSlice([]float64{5, 6, 7, 8, 9, 10, 11, 12}, 2, 2, 2, 1)
	c := ConcatC(a, b)
	if c.Dim(0) != 3 {
		t.Fatalf("concat channels %v", c.Shape)
	}
	if c.At(0, 1, 1, 0) != 4 || c.At(1, 0, 0, 0) != 5 || c.At(2, 1, 1, 0) != 12 {
		t.Error("concat layout wrong")
	}
	ga, gb := SplitC(c, 1)
	if !ga.SameShape(a) || !gb.SameShape(b) {
		t.Error("split shapes wrong")
	}
	if ga.At(0, 0, 0, 0) != 1 || gb.At(1, 0, 0, 0) != 9 {
		t.Error("split values wrong")
	}
}

func TestConv3DShapePanics(t *testing.T) {
	x := New(2, 2, 2, 2)
	wrongC := New(1, 3, 3, 3, 3)
	assertPanics(t, "channel mismatch", func() { Conv3D(x, wrongC, nil) })
	even := New(1, 2, 2, 2, 2)
	assertPanics(t, "even kernel", func() { Conv3D(x, even, nil) })
	assertPanics(t, "rank-3 input", func() { Conv3D(New(2, 2, 2), New(1, 2, 3, 3, 3), nil) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", name)
		}
	}()
	f()
}
