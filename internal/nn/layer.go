// Package nn implements the neural-network framework of the Steiner-point
// selector: 3-D convolution layers, residual blocks, the arbitrary-size
// 3-D residual U-Net of the paper's Fig 4, losses and optimizers — all on
// the tensor package, CPU-only, with manual layer-by-layer backpropagation.
//
// Layers process one sample at a time in [C, H, V, M] form; the training
// pipeline accumulates gradients across a mini-batch before each optimizer
// step, which both matches the paper's same-size batching (Fig 9) and
// keeps layers free of any fixed spatial size — the property that lets one
// trained network handle layouts of any dimensions.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"oarsmt/internal/tensor"
)

// Param is one learnable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape...)}
}

// Layer is one differentiable stage. Forward must record whatever Backward
// needs; Backward receives the gradient wrt the layer output, accumulates
// parameter gradients (+=) and returns the gradient wrt the layer input.
// A Layer processes one sample at a time and is not safe for concurrent
// use.
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// arenaUser is implemented by layers whose activations can come from a
// shared bump arena (see tensor.Arena for the ownership rules).
type arenaUser interface {
	setArena(a *tensor.Arena)
}

// Conv3D is a "same" 3-D convolution layer with odd cubic kernels.
type Conv3D struct {
	InC, OutC, K int
	weight       *Param
	bias         *Param
	lastX        *tensor.Tensor

	// ar, when set, provides activation and gradient storage.
	ar *tensor.Arena
}

// NewConv3D creates a conv layer with He-initialised weights.
func NewConv3D(r *rand.Rand, name string, inC, outC, k int) *Conv3D {
	if k%2 == 0 || k < 1 {
		panic(fmt.Sprintf("nn: kernel size %d must be odd", k))
	}
	w := tensor.New(outC, inC, k, k, k)
	std := math.Sqrt(2.0 / float64(inC*k*k*k))
	for i := range w.Data {
		w.Data[i] = r.NormFloat64() * std
	}
	return &Conv3D{
		InC: inC, OutC: outC, K: k,
		weight: newParam(name+".weight", w),
		bias:   newParam(name+".bias", tensor.New(outC)),
	}
}

// Forward implements Layer.
func (c *Conv3D) Forward(x *tensor.Tensor) *tensor.Tensor { return c.forward(c.ar, x, true) }

// forward convolves x into an activation from a, recording the input for
// Backward only when record is set; unrecorded passes only read the layer.
func (c *Conv3D) forward(a *tensor.Arena, x *tensor.Tensor, record bool) *tensor.Tensor {
	if record {
		c.lastX = x
	}
	return tensor.Conv3DIn(a, x, c.weight.W, c.bias.W)
}

// Backward implements Layer.
func (c *Conv3D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gx, gw, gb := tensor.Conv3DBackwardIn(c.ar, c.lastX, c.weight.W, grad)
	c.weight.G.AddScaled(gw, 1)
	c.bias.G.AddScaled(gb, 1)
	return gx
}

// Params implements Layer.
func (c *Conv3D) Params() []*Param { return []*Param{c.weight, c.bias} }

func (c *Conv3D) setArena(a *tensor.Arena) { c.ar = a }

// ReLU is the rectified-linear activation.
type ReLU struct {
	lastX *tensor.Tensor
	ar    *tensor.Arena
}

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor { return l.forward(l.ar, x, true) }

// forward is Forward on an activation from a, recording only when asked.
func (l *ReLU) forward(a *tensor.Arena, x *tensor.Tensor, record bool) *tensor.Tensor {
	if record {
		l.lastX = x
	}
	out := a.New(x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gx := l.ar.New(grad.Shape...)
	for i, v := range l.lastX.Data {
		if v > 0 {
			gx.Data[i] = grad.Data[i]
		}
	}
	return gx
}

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

func (l *ReLU) setArena(a *tensor.Arena) { l.ar = a }

// ResBlock is a 3-D convolutional residual block (He et al. [8]):
// out = ReLU(x + Conv(ReLU(Conv(x)))). Channel count is preserved.
type ResBlock struct {
	conv1, conv2 *Conv3D
	relu1        ReLU
	lastOut      *tensor.Tensor
	ar           *tensor.Arena
}

// NewResBlock creates a residual block over c channels with kernel k.
func NewResBlock(r *rand.Rand, name string, c, k int) *ResBlock {
	return &ResBlock{
		conv1: NewConv3D(r, name+".conv1", c, c, k),
		conv2: NewConv3D(r, name+".conv2", c, c, k),
	}
}

// Forward implements Layer.
func (b *ResBlock) Forward(x *tensor.Tensor) *tensor.Tensor { return b.forward(b.ar, x, true) }

// forward is Forward on activations from a, recording only when asked. The
// sum+ReLU tail is fused into one loop.
func (b *ResBlock) forward(a *tensor.Arena, x *tensor.Tensor, record bool) *tensor.Tensor {
	y := b.conv2.forward(a, b.relu1.forward(a, b.conv1.forward(a, x, record), record), record)
	out := a.New(x.Shape...)
	for i, v := range x.Data {
		if s := v + y.Data[i]; s > 0 {
			out.Data[i] = s
		}
	}
	if record {
		b.lastOut = out
	}
	return out
}

// Backward implements Layer.
func (b *ResBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	// Through the final ReLU: the output is positive exactly where the
	// pre-activation sum was.
	gSum := b.ar.New(grad.Shape...)
	for i, v := range b.lastOut.Data {
		if v > 0 {
			gSum.Data[i] = grad.Data[i]
		}
	}
	// Branch path.
	gx := b.conv1.Backward(b.relu1.Backward(b.conv2.Backward(gSum)))
	// Skip path.
	gx.AddScaled(gSum, 1)
	return gx
}

// Params implements Layer.
func (b *ResBlock) Params() []*Param {
	return append(b.conv1.Params(), b.conv2.Params()...)
}

func (b *ResBlock) setArena(a *tensor.Arena) {
	b.ar = a
	b.conv1.setArena(a)
	b.conv2.setArena(a)
	b.relu1.setArena(a)
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

func (s *Sequential) setArena(a *tensor.Arena) {
	for _, l := range s.Layers {
		if u, ok := l.(arenaUser); ok {
			u.setArena(a)
		}
	}
}

// Sigmoid returns 1/(1+exp(-x)) elementwise; used at inference time to map
// selector logits to per-vertex probabilities (paper §3.3).
func Sigmoid(x float64) float64 {
	// Numerically stable in both tails.
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
