package nn

import (
	"fmt"
	"math/rand"

	"oarsmt/internal/errs"
	"oarsmt/internal/tensor"
)

// UNetConfig parameterises the 3-D residual U-Net of the paper's Fig 4.
type UNetConfig struct {
	// InChannels is the number of input feature planes (7 in the paper's
	// encoding, Fig 3).
	InChannels int
	// Base is the channel count of the first level; level i uses
	// Base * 2^i channels.
	Base int
	// Depth is the number of pooling levels below the top (Depth 2 gives
	// the classic three-level U).
	Depth int
	// Kernel is the cubic kernel size; the paper uses 3 throughout.
	Kernel int
	// Norm, when positive, inserts GroupNorm with that many groups after
	// the stem and each encoder/decoder fusion convolution. It must divide
	// Base. 0 disables normalisation (the default; the paper does not
	// specify its normalisation).
	Norm int
}

// DefaultUNetConfig returns the configuration used by this repo's trained
// selectors: the paper's 7-channel input and 3x3x3 kernels with a compact
// channel budget suited to CPU training.
func DefaultUNetConfig() UNetConfig {
	return UNetConfig{InChannels: 7, Base: 8, Depth: 2, Kernel: 3}
}

func (c UNetConfig) validate() error {
	switch {
	case c.InChannels < 1:
		return fmt.Errorf("%w: nn: InChannels = %d", errs.ErrInvalidModel, c.InChannels)
	case c.Base < 1:
		return fmt.Errorf("%w: nn: Base = %d", errs.ErrInvalidModel, c.Base)
	case c.Depth < 1:
		return fmt.Errorf("%w: nn: Depth = %d", errs.ErrInvalidModel, c.Depth)
	case c.Kernel < 1 || c.Kernel%2 == 0:
		return fmt.Errorf("%w: nn: Kernel = %d must be odd", errs.ErrInvalidModel, c.Kernel)
	case c.Norm < 0 || (c.Norm > 0 && c.Base%c.Norm != 0):
		return fmt.Errorf("%w: nn: Norm = %d must be 0 or divide Base = %d", errs.ErrInvalidModel, c.Norm, c.Base)
	}
	return nil
}

// UNet3D is the image-in-image-out network of the selector: it maps a
// [InChannels, H, V, M] feature volume to per-vertex logits [H, V, M] for
// any H, V, M. Apply Sigmoid to the logits to obtain the final selected
// probabilities of paper §3.3.
type UNet3D struct {
	Config UNetConfig

	stem *Conv3D
	// Per encoder level: a ReLU'd channel-expanding conv (levels > 0) and
	// a residual block.
	encConv []*Conv3D   // len Depth (level 1..Depth)
	encRes  []*ResBlock // len Depth+1 (level 0..Depth)
	// Per decoder level (top-down order index 0 = level Depth-1): a conv
	// fusing the concatenated skip, and a residual block.
	decConv []*Conv3D
	decRes  []*ResBlock
	head    *Conv3D

	// Optional GroupNorm after the stem and each enc/dec conv; nil slices
	// when Config.Norm == 0. Indexed in the same order as the ReLUs.
	norms []*GroupNorm

	relus []*ReLU // scratch ReLUs paired with encConv/decConv and stem

	// Forward state for Backward.
	encInShapes [][]int // input shape at each level before pooling
	skipChans   []int

	// arena, when attached via SetArena, provides all activation and
	// gradient storage. Forward resets it at entry, so arena-backed
	// outputs stay valid exactly until the next forward pass.
	arena *tensor.Arena
}

// NewUNet3D builds a randomly initialised U-Net.
func NewUNet3D(r *rand.Rand, cfg UNetConfig) (*UNet3D, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	u := &UNet3D{Config: cfg}
	ch := func(level int) int { return cfg.Base << level }

	u.stem = NewConv3D(r, "stem", cfg.InChannels, ch(0), cfg.Kernel)
	u.encRes = append(u.encRes, NewResBlock(r, "enc0.res", ch(0), cfg.Kernel))
	for l := 1; l <= cfg.Depth; l++ {
		u.encConv = append(u.encConv, NewConv3D(r, fmt.Sprintf("enc%d.conv", l), ch(l-1), ch(l), cfg.Kernel))
		u.encRes = append(u.encRes, NewResBlock(r, fmt.Sprintf("enc%d.res", l), ch(l), cfg.Kernel))
	}
	for l := cfg.Depth - 1; l >= 0; l-- {
		u.decConv = append(u.decConv, NewConv3D(r, fmt.Sprintf("dec%d.conv", l), ch(l+1)+ch(l), ch(l), cfg.Kernel))
		u.decRes = append(u.decRes, NewResBlock(r, fmt.Sprintf("dec%d.res", l), ch(l), cfg.Kernel))
	}
	u.head = NewConv3D(r, "head", ch(0), 1, cfg.Kernel)
	nRelu := 1 + len(u.encConv) + len(u.decConv)
	for i := 0; i < nRelu; i++ {
		u.relus = append(u.relus, &ReLU{})
	}
	if cfg.Norm > 0 {
		// One norm per ReLU position: stem (level 0 channels), encoder
		// levels 1..Depth, decoder levels Depth-1..0.
		u.norms = append(u.norms, NewGroupNorm("stem.norm", ch(0), cfg.Norm))
		for l := 1; l <= cfg.Depth; l++ {
			u.norms = append(u.norms, NewGroupNorm(fmt.Sprintf("enc%d.norm", l), ch(l), cfg.Norm))
		}
		for l := cfg.Depth - 1; l >= 0; l-- {
			u.norms = append(u.norms, NewGroupNorm(fmt.Sprintf("dec%d.norm", l), ch(l), cfg.Norm))
		}
	}
	return u, nil
}

// SetArena attaches a bump arena that provides every activation and
// gradient buffer of the training pass. The network owns the reuse
// boundary: Forward resets the arena at entry, which recycles the previous
// pass's activations and gradients — safe because training always
// completes Backward before the next Forward. Callers must copy any
// network output they keep across passes. Forward/Backward are
// single-goroutine, which Layer already requires; Infer takes its arena
// per call and never touches this one.
func (u *UNet3D) SetArena(a *tensor.Arena) {
	u.arena = a
	u.stem.setArena(a)
	u.head.setArena(a)
	for _, c := range u.encConv {
		c.setArena(a)
	}
	for _, c := range u.decConv {
		c.setArena(a)
	}
	for _, b := range u.encRes {
		b.setArena(a)
	}
	for _, b := range u.decRes {
		b.setArena(a)
	}
	for _, n := range u.norms {
		n.setArena(a)
	}
	for _, r := range u.relus {
		r.setArena(a)
	}
}

// backNorm runs the i-th GroupNorm backward when enabled.
func (u *UNet3D) backNorm(i int, g *tensor.Tensor) *tensor.Tensor {
	if u.norms == nil {
		return g
	}
	return u.norms[i].Backward(g)
}

// checkInput panics unless shape is [InChannels, H, V, M].
func (u *UNet3D) checkInput(shape []int) {
	if len(shape) != 4 || shape[0] != u.Config.InChannels {
		panic(fmt.Sprintf("nn: UNet input shape %v, want [%d,H,V,M]", shape, u.Config.InChannels))
	}
}

// Forward maps a [InChannels, H, V, M] input to [H, V, M] logits,
// recording the state Backward needs. It resets the attached arena at
// entry; this is the training pass.
func (u *UNet3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	u.arena.Reset()
	u.encInShapes = u.encInShapes[:0]
	u.skipChans = u.skipChans[:0]
	return u.forward(u.arena, x, true)
}

// Infer is the stateless inference pass: bit-identical to Forward, with
// every activation allocated from a and nothing recorded for Backward.
// It only reads the network, so any number of goroutines may run Infer on
// one network at once, each with its own arena. The caller owns a and its
// reset boundary; the returned logits live in a.
func (u *UNet3D) Infer(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return u.forward(a, x, false)
}

// forward is the one walk of the U shared by Forward and Infer.
// Every level repeats one stage — conv, optional GroupNorm, ReLU, residual
// block — whose ReLU/norm index runs stem, encoder levels 1..Depth, then
// decoder levels Depth-1..0.
func (u *UNet3D) forward(a *tensor.Arena, x *tensor.Tensor, record bool) *tensor.Tensor {
	u.checkInput(x.Shape)
	stage := func(i int, conv *Conv3D, res *ResBlock, x *tensor.Tensor) *tensor.Tensor {
		y := conv.forward(a, x, record)
		if u.norms != nil {
			y = u.norms[i].forward(a, y, record)
		}
		return res.forward(a, u.relus[i].forward(a, y, record), record)
	}
	depth := u.Config.Depth

	// Encoder.
	skips := make([]*tensor.Tensor, 0, depth)
	cur := stage(0, u.stem, u.encRes[0], x)
	for l := 1; l <= depth; l++ {
		skips = append(skips, cur)
		if record {
			u.encInShapes = append(u.encInShapes, append([]int(nil), cur.Shape...))
		}
		cur = stage(l, u.encConv[l-1], u.encRes[l], tensor.AvgPool2In(a, cur))
	}

	// Decoder.
	for i := 0; i < depth; i++ {
		skip := skips[depth-1-i]
		up := tensor.UpsampleNearestIn(a, cur, skip.Dim(1), skip.Dim(2), skip.Dim(3))
		if record {
			u.skipChans = append(u.skipChans, up.Dim(0))
		}
		cur = stage(depth+1+i, u.decConv[i], u.decRes[i], tensor.ConcatCIn(a, up, skip))
	}

	out := u.head.forward(a, cur, record)
	return out.Reshape(out.Dim(1), out.Dim(2), out.Dim(3))
}

// Backward propagates the gradient wrt the [H, V, M] logits, accumulating
// parameter gradients, and returns the gradient wrt the input volume.
func (u *UNet3D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	depth := u.Config.Depth
	relu := len(u.relus) - 1
	g := u.head.Backward(grad.Reshape(1, grad.Dim(0), grad.Dim(1), grad.Dim(2)))

	// Skip-path gradients discovered while unwinding the decoder, indexed
	// by encoder level.
	skipGrads := make([]*tensor.Tensor, depth)
	for i := depth - 1; i >= 0; i-- {
		g = u.decConv[i].Backward(u.backNorm(relu, u.relus[relu].Backward(u.decRes[i].Backward(g))))
		relu--
		gUp, gSkip := tensor.SplitCIn(u.arena, g, u.skipChans[i])
		skipGrads[depth-1-i] = gSkip
		// Up-sampled from the level below (or bottleneck).
		srcShape := u.belowShape(depth - 1 - i)
		g = tensor.UpsampleNearestBackwardIn(u.arena, srcShape, gUp)
	}

	// Encoder, bottom-up.
	for l := depth; l >= 1; l-- {
		g = u.encConv[l-1].Backward(u.backNorm(relu, u.relus[relu].Backward(u.encRes[l].Backward(g))))
		relu--
		g = tensor.AvgPool2BackwardIn(u.arena, u.encInShapes[l-1], g)
		g.AddScaled(skipGrads[l-1], 1)
	}
	return u.stem.Backward(u.backNorm(relu, u.relus[relu].Backward(u.encRes[0].Backward(g))))
}

// belowShape returns the spatial shape of the tensor that was upsampled at
// encoder level l (the pooled shape below it).
func (u *UNet3D) belowShape(level int) []int {
	s := u.encInShapes[level]
	h, v, m := (s[1]+1)/2, (s[2]+1)/2, (s[3]+1)/2
	c := u.Config.Base << (level + 1)
	return []int{c, h, v, m}
}

// Params implements Layer.
func (u *UNet3D) Params() []*Param {
	var out []*Param
	for _, n := range u.norms {
		out = append(out, n.Params()...)
	}
	out = append(out, u.stem.Params()...)
	for _, b := range u.encRes {
		out = append(out, b.Params()...)
	}
	for _, c := range u.encConv {
		out = append(out, c.Params()...)
	}
	for _, c := range u.decConv {
		out = append(out, c.Params()...)
	}
	for _, b := range u.decRes {
		out = append(out, b.Params()...)
	}
	out = append(out, u.head.Params()...)
	return out
}

// NumParams returns the total number of learnable scalars.
func (u *UNet3D) NumParams() int {
	n := 0
	for _, p := range u.Params() {
		n += p.W.Len()
	}
	return n
}
