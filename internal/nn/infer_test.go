package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"oarsmt/internal/tensor"
)

// inferNets builds U-Nets over a spread of configurations — with and
// without GroupNorm, one to three levels — with every parameter
// randomised, so GroupNorm scale/shift and biases are not at their
// identity initialisation.
func inferNets(t *testing.T) []*UNet3D {
	t.Helper()
	cfgs := []UNetConfig{
		{InChannels: 7, Base: 2, Depth: 1, Kernel: 3},
		{InChannels: 7, Base: 4, Depth: 2, Kernel: 3, Norm: 2},
		{InChannels: 3, Base: 4, Depth: 3, Kernel: 3, Norm: 4},
		{InChannels: 5, Base: 3, Depth: 2, Kernel: 1},
		{InChannels: 2, Base: 2, Depth: 1, Kernel: 5, Norm: 1},
	}
	r := rand.New(rand.NewSource(17))
	nets := make([]*UNet3D, len(cfgs))
	for i, cfg := range cfgs {
		u, err := NewUNet3D(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range u.Params() {
			for k := range p.W.Data {
				p.W.Data[k] = 0.4 * r.NormFloat64()
			}
		}
		nets[i] = u
	}
	return nets
}

// inferShapes are spatial sizes including odd and degenerate ones, which
// exercise the ceil-pooling and cropped up-sampling at every level.
var inferShapes = [][3]int{{5, 3, 1}, {7, 9, 3}, {8, 8, 2}, {1, 1, 1}, {6, 11, 4}}

// firstDiff returns the first index where a and b differ bitwise, 0 on a
// length mismatch, or -1 when they are identical.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestInferMatchesForward is the differential test of the stateless
// inference pass against the training Forward it mirrors: bit-identical
// logits across configurations and grid sizes, with and without an
// attached training arena, and on a reused inference arena.
func TestInferMatchesForward(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := tensor.NewArena()
	for ni, u := range inferNets(t) {
		for _, withArena := range []bool{false, true} {
			if withArena {
				u.SetArena(tensor.NewArena())
			}
			for _, sh := range inferShapes {
				name := fmt.Sprintf("net%d/arena=%v/%v", ni, withArena, sh)
				x := randTensor(r, u.Config.InChannels, sh[0], sh[1], sh[2])
				want := append([]float64(nil), u.Forward(x).Data...)
				for pass := 0; pass < 2; pass++ {
					a.Reset()
					got := u.Infer(a, x)
					if got.Rank() != 3 || got.Dim(0) != sh[0] || got.Dim(1) != sh[1] || got.Dim(2) != sh[2] {
						t.Fatalf("%s: Infer shape %v", name, got.Shape)
					}
					if i := firstDiff(got.Data, want); i >= 0 {
						t.Fatalf("%s pass %d: Infer differs from Forward at %d", name, pass, i)
					}
				}
			}
		}
	}
}

// TestInferRecordsNothing pins that an Infer between Forward and Backward
// leaves the recorded training state alone: the gradients match a
// Forward+Backward with no Infer in between.
func TestInferRecordsNothing(t *testing.T) {
	for ni, u := range inferNets(t) {
		u.SetArena(tensor.NewArena())
		r := rand.New(rand.NewSource(int64(ni)))
		x := randTensor(r, u.Config.InChannels, 6, 5, 3)
		other := randTensor(r, u.Config.InChannels, 3, 7, 2)
		grad := randTensor(r, 6, 5, 3)

		grads := func(interleave bool) [][]float64 {
			for _, p := range u.Params() {
				p.G.Zero()
			}
			u.Forward(x)
			if interleave {
				u.Infer(tensor.NewArena(), other)
			}
			gx := u.Backward(grad)
			out := [][]float64{append([]float64(nil), gx.Data...)}
			for _, p := range u.Params() {
				out = append(out, append([]float64(nil), p.G.Data...))
			}
			return out
		}
		want, got := grads(false), grads(true)
		for i := range want {
			if j := firstDiff(got[i], want[i]); j >= 0 {
				t.Fatalf("net%d: gradient %d differs at %d after an interleaved Infer", ni, i, j)
			}
		}
	}
}

// TestInferConcurrent runs the inference pass from several goroutines on
// one network, each with its own arena, and requires every answer to be
// bit-identical to the serial one. Run under -race it also proves the pass
// only reads the shared network.
func TestInferConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for ni, u := range inferNets(t) {
		var xs []*tensor.Tensor
		var want [][]float64
		serial := tensor.NewArena()
		for _, sh := range inferShapes {
			x := randTensor(r, u.Config.InChannels, sh[0], sh[1], sh[2])
			xs = append(xs, x)
			serial.Reset()
			want = append(want, append([]float64(nil), u.Infer(serial, x).Data...))
		}

		const goroutines = 4
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				a := tensor.NewArena()
				for rep := 0; rep < 3; rep++ {
					for k := range xs {
						i := (k + g) % len(xs)
						a.Reset()
						got := u.Infer(a, xs[i]).Data
						for j := range got {
							if got[j] != want[i][j] {
								errs[g] = fmt.Errorf("input %d: element %d is %v, serial %v", i, j, got[j], want[i][j])
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("net%d goroutine %d: %v", ni, g, err)
			}
		}
	}
}
