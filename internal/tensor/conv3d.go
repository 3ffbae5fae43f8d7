package tensor

import (
	"fmt"

	"oarsmt/internal/parallel"
)

// Conv3D computes a "same" 3-D convolution. x has shape [InC, H, V, M],
// w has shape [OutC, InC, K, K, K] with K odd, b has shape [OutC] (or is
// nil for no bias). The result has shape [OutC, H, V, M]; the input is
// implicitly zero-padded by K/2 on every side.
//
// The implementation is the im2col + blocked-GEMM engine of gemm.go:
// results are bit-identical to the textbook direct convolution and to
// themselves at any worker count.
func Conv3D(x, w, b *Tensor) *Tensor { return Conv3DIn(nil, x, w, b) }

// Conv3DIn is Conv3D with the output allocated from the arena (heap when
// a is nil).
func Conv3DIn(a *Arena, x, w, b *Tensor) *Tensor {
	sh := convCheck(x, w, b)
	out := a.New(sh.outC, sh.h, sh.v, sh.m)
	var bias []float64
	if b != nil {
		bias = b.Data
	}
	convForward(out.Data, x.Data, w.Data, bias, sh)
	return out
}

// Conv3DBackward computes the gradients of a Conv3D call: gradX wrt the
// input, gradW wrt the kernel and gradB wrt the bias, given gradOut, the
// gradient wrt the output. Results are bit-identical at any worker count.
func Conv3DBackward(x, w, gradOut *Tensor) (gradX, gradW, gradB *Tensor) {
	return Conv3DBackwardIn(nil, x, w, gradOut)
}

// Conv3DBackwardIn is Conv3DBackward with the three gradients allocated
// from the arena. On the heap path they share one backing allocation.
func Conv3DBackwardIn(a *Arena, x, w, gradOut *Tensor) (gradX, gradW, gradB *Tensor) {
	sh := convCheck(x, w, nil)
	if gradOut.Rank() != 4 || gradOut.Dim(0) != sh.outC || gradOut.Dim(1) != sh.h ||
		gradOut.Dim(2) != sh.v || gradOut.Dim(3) != sh.m {
		panic(fmt.Sprintf("tensor: gradOut shape %v for input %v", gradOut.Shape, x.Shape))
	}
	if a != nil {
		gradX = a.New(sh.inC, sh.h, sh.v, sh.m)
		gradW = a.New(sh.outC, sh.inC, sh.k, sh.k, sh.k)
		gradB = a.New(sh.outC)
	} else {
		nx, nw := sh.inC*sh.n(), sh.outC*sh.j()
		backing := make([]float64, nx+nw+sh.outC)
		gradX = &Tensor{Shape: []int{sh.inC, sh.h, sh.v, sh.m}, Data: backing[:nx:nx]}
		gradW = &Tensor{Shape: []int{sh.outC, sh.inC, sh.k, sh.k, sh.k}, Data: backing[nx : nx+nw : nx+nw]}
		gradB = &Tensor{Shape: []int{sh.outC}, Data: backing[nx+nw:]}
	}
	convBackward(gradX.Data, gradW.Data, gradB.Data, x.Data, w.Data, gradOut.Data, sh)
	return gradX, gradW, gradB
}

// convCheck validates forward/backward shapes and returns the call's
// dimensions.
func convCheck(x, w, b *Tensor) convShape {
	inC, h, v, m := convDims(x)
	outC, k := convKernelDims(w, inC)
	if b != nil && (b.Rank() != 1 || b.Dim(0) != outC) {
		panic(fmt.Sprintf("tensor: bias shape %v for %d output channels", b.Shape, outC))
	}
	return convShape{inC: inC, outC: outC, h: h, v: v, m: m, k: k}
}

func convDims(x *Tensor) (c, h, v, m int) {
	shape := x.Shape
	if len(shape) != 4 {
		panic(fmt.Sprintf("tensor: conv input rank %d, want 4 [C,H,V,M]", len(shape)))
	}
	return shape[0], shape[1], shape[2], shape[3]
}

func convKernelDims(w *Tensor, inC int) (outC, k int) {
	shape := w.Shape
	if len(shape) != 5 {
		panic(fmt.Sprintf("tensor: kernel rank %d, want 5 [OutC,InC,K,K,K]", len(shape)))
	}
	if shape[1] != inC {
		panic(fmt.Sprintf("tensor: kernel expects %d input channels, input has %d", shape[1], inC))
	}
	k = shape[2]
	if shape[3] != k || shape[4] != k || k%2 == 0 {
		panic(fmt.Sprintf("tensor: kernel dims %v, want odd cubic", shape))
	}
	return shape[0], k
}

// AvgPool2 downsamples [C, H, V, M] by a factor of 2 in each spatial
// dimension with ceil semantics: output dims are ceil(d/2) and border
// cells average only the inputs they cover, summed in ascending
// (dh, dv, dm) order and divided by the window size. Channels shard over
// the worker pool; a channel never splits, so results are worker-count
// independent.
func AvgPool2(x *Tensor) *Tensor { return AvgPool2In(nil, x) }

// AvgPool2In is AvgPool2 with the output allocated from the arena.
func AvgPool2In(a *Arena, x *Tensor) *Tensor {
	c, h, v, m := convDims(x)
	oh, ov, om := (h+1)/2, (v+1)/2, (m+1)/2
	out := a.New(c, oh, ov, om)
	parallel.ForWork(c*h*v*m, c, func(_, lo, hi int) {
		for cc := lo; cc < hi; cc++ {
			src := x.Data[cc*h*v*m : (cc+1)*h*v*m]
			dst := out.Data[cc*oh*ov*om : (cc+1)*oh*ov*om]
			di := 0
			for hh := 0; hh < oh; hh++ {
				h0 := 2 * hh
				hn := min(2, h-h0)
				for vv := 0; vv < ov; vv++ {
					v0 := 2 * vv
					vn := min(2, v-v0)
					for mm := 0; mm < om; mm++ {
						m0 := 2 * mm
						mn := min(2, m-m0)
						var sum float64
						for dh := 0; dh < hn; dh++ {
							rowBase := ((h0+dh)*v + v0) * m
							for dv := 0; dv < vn; dv++ {
								row := src[rowBase+dv*m+m0 : rowBase+dv*m+m0+mn]
								for _, xv := range row {
									sum += xv
								}
							}
						}
						dst[di] = sum / float64(hn*vn*mn)
						di++
					}
				}
			}
		}
	})
	return out
}

// AvgPool2Backward distributes gradOut of an AvgPool2 call back onto the
// input shape. Every input cell belongs to exactly one window, so each
// element is written once.
func AvgPool2Backward(inShape []int, gradOut *Tensor) *Tensor {
	return AvgPool2BackwardIn(nil, inShape, gradOut)
}

// AvgPool2BackwardIn is AvgPool2Backward with the output allocated from
// the arena.
func AvgPool2BackwardIn(a *Arena, inShape []int, gradOut *Tensor) *Tensor {
	c, h, v, m := inShape[0], inShape[1], inShape[2], inShape[3]
	gx := a.New(c, h, v, m)
	oh, ov, om := (h+1)/2, (v+1)/2, (m+1)/2
	parallel.ForWork(c*h*v*m, c, func(_, lo, hi int) {
		for cc := lo; cc < hi; cc++ {
			src := gradOut.Data[cc*oh*ov*om : (cc+1)*oh*ov*om]
			dst := gx.Data[cc*h*v*m : (cc+1)*h*v*m]
			si := 0
			for hh := 0; hh < oh; hh++ {
				h0 := 2 * hh
				hn := min(2, h-h0)
				for vv := 0; vv < ov; vv++ {
					v0 := 2 * vv
					vn := min(2, v-v0)
					for mm := 0; mm < om; mm++ {
						m0 := 2 * mm
						mn := min(2, m-m0)
						g := src[si] / float64(hn*vn*mn)
						si++
						for dh := 0; dh < hn; dh++ {
							rowBase := ((h0+dh)*v + v0) * m
							for dv := 0; dv < vn; dv++ {
								row := dst[rowBase+dv*m+m0 : rowBase+dv*m+m0+mn]
								for i := range row {
									row[i] = g
								}
							}
						}
					}
				}
			}
		}
	})
	return gx
}

// UpsampleNearest resizes [C, h, v, m] to [C, H, V, M] by nearest-neighbour
// sampling (source index = floor(out · src / dst)). It is the exact
// inverse pairing of AvgPool2's ceil-mode dims, so U-Net skip connections
// always line up regardless of odd input sizes.
func UpsampleNearest(x *Tensor, h, v, m int) *Tensor {
	return UpsampleNearestIn(nil, x, h, v, m)
}

// UpsampleNearestIn is UpsampleNearest with the output allocated from the
// arena.
func UpsampleNearestIn(a *Arena, x *Tensor, h, v, m int) *Tensor {
	c, sh, sv, sm := convDims(x)
	out := a.New(c, h, v, m)
	parallel.ForWork(c*h*v*m, c, func(_, lo, hi int) {
		for cc := lo; cc < hi; cc++ {
			src := x.Data[cc*sh*sv*sm : (cc+1)*sh*sv*sm]
			dst := out.Data[cc*h*v*m : (cc+1)*h*v*m]
			di := 0
			for hh := 0; hh < h; hh++ {
				shh := hh * sh / h
				for vv := 0; vv < v; vv++ {
					svv := vv * sv / v
					srcRow := src[(shh*sv+svv)*sm:]
					for mm := 0; mm < m; mm++ {
						dst[di] = srcRow[mm*sm/m]
						di++
					}
				}
			}
		}
	})
	return out
}

// UpsampleNearestBackward accumulates gradOut of an UpsampleNearest call
// back onto the source shape, in ascending output order per source cell.
func UpsampleNearestBackward(inShape []int, gradOut *Tensor) *Tensor {
	return UpsampleNearestBackwardIn(nil, inShape, gradOut)
}

// UpsampleNearestBackwardIn is UpsampleNearestBackward with the output
// allocated from the arena.
func UpsampleNearestBackwardIn(a *Arena, inShape []int, gradOut *Tensor) *Tensor {
	c, sh, sv, sm := inShape[0], inShape[1], inShape[2], inShape[3]
	_, h, v, m := convDims(gradOut)
	gx := a.New(c, sh, sv, sm)
	parallel.ForWork(c*h*v*m, c, func(_, lo, hi int) {
		for cc := lo; cc < hi; cc++ {
			src := gradOut.Data[cc*h*v*m:]
			dst := gx.Data[cc*sh*sv*sm:]
			si := 0
			for hh := 0; hh < h; hh++ {
				shh := hh * sh / h
				for vv := 0; vv < v; vv++ {
					svv := vv * sv / v
					dstRow := dst[(shh*sv+svv)*sm:]
					for mm := 0; mm < m; mm++ {
						dstRow[mm*sm/m] += src[si]
						si++
					}
				}
			}
		}
	})
	return gx
}

// ConcatC concatenates two [C,H,V,M] tensors along the channel dimension;
// spatial dims must match.
func ConcatC(a, b *Tensor) *Tensor { return ConcatCIn(nil, a, b) }

// ConcatCIn is ConcatC with the output allocated from the arena.
func ConcatCIn(ar *Arena, a, b *Tensor) *Tensor {
	ca, h, v, m := convDims(a)
	cb, h2, v2, m2 := convDims(b)
	if h != h2 || v != v2 || m != m2 {
		panic(fmt.Sprintf("tensor: ConcatC spatial mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := ar.New(ca+cb, h, v, m)
	copy(out.Data[:len(a.Data)], a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// SplitC splits the channel-dimension gradient of a ConcatC call back into
// the two operands' gradients, the first having ca channels.
func SplitC(gradOut *Tensor, ca int) (ga, gb *Tensor) {
	return SplitCIn(nil, gradOut, ca)
}

// SplitCIn is SplitC with the outputs allocated from the arena.
func SplitCIn(a *Arena, gradOut *Tensor, ca int) (ga, gb *Tensor) {
	c, h, v, m := convDims(gradOut)
	if ca <= 0 || ca >= c {
		panic(fmt.Sprintf("tensor: SplitC at %d of %d channels", ca, c))
	}
	ga = a.New(ca, h, v, m)
	gb = a.New(c-ca, h, v, m)
	copy(ga.Data, gradOut.Data[:ca*h*v*m])
	copy(gb.Data, gradOut.Data[ca*h*v*m:])
	return ga, gb
}
