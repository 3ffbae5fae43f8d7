package nn

import (
	"fmt"
	"math"

	"oarsmt/internal/parallel"
	"oarsmt/internal/tensor"
)

// GroupNorm normalises a [C, H, V, M] volume over groups of channels
// (Wu & He, 2018) with learned per-channel scale and shift. Unlike batch
// normalisation it is independent of the batch, which matters here because
// the training pipeline processes one sample at a time; unlike layer norm
// it keeps some channel locality. With Groups == C it degenerates to
// instance norm, with Groups == 1 to layer norm.
//
// The paper does not specify its U-Net's normalisation; GroupNorm is
// offered as the UNetConfig.Norm option and is exercised by the ablation
// benchmarks.
type GroupNorm struct {
	C, Groups int
	Eps       float64

	gamma, beta *Param

	// Forward state for Backward.
	lastX   *tensor.Tensor
	lastStd []float64 // per group
	lastMu  []float64
	lastN   int // elements per group

	ar *tensor.Arena
	// Float32 inference-mode weight caches (converted once).
	gamma32, beta32 *tensor.T32
}

// NewGroupNorm creates a GroupNorm over c channels in the given number of
// groups; groups must divide c.
func NewGroupNorm(name string, c, groups int) *GroupNorm {
	if groups < 1 || c%groups != 0 {
		panic(fmt.Sprintf("nn: GroupNorm groups %d must divide channels %d", groups, c))
	}
	gamma := tensor.New(c)
	gamma.Fill(1)
	return &GroupNorm{
		C: c, Groups: groups, Eps: 1e-5,
		gamma: newParam(name+".gamma", gamma),
		beta:  newParam(name+".beta", tensor.New(c)),
	}
}

// Forward implements Layer.
func (g *GroupNorm) Forward(x *tensor.Tensor) *tensor.Tensor { return g.forward(g.ar, x, true) }

// forward normalises x into an activation from a. With record set it keeps
// the input and the per-group statistics for Backward; without, it only
// reads the layer.
func (g *GroupNorm) forward(a *tensor.Arena, x *tensor.Tensor, record bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(0) != g.C {
		panic(fmt.Sprintf("nn: GroupNorm input shape %v, want [%d,H,V,M]", x.Shape, g.C))
	}
	spatial := x.Dim(1) * x.Dim(2) * x.Dim(3)
	chPerGroup := g.C / g.Groups
	n := chPerGroup * spatial
	if record {
		g.lastX = x
		g.lastN = n
		if cap(g.lastMu) < g.Groups {
			g.lastMu = make([]float64, g.Groups)
			g.lastStd = make([]float64, g.Groups)
		}
		g.lastMu = g.lastMu[:g.Groups]
		g.lastStd = g.lastStd[:g.Groups]
	}

	out := a.New(x.Shape...)
	g.forGroups(x.Len(), func(grp int) {
		lo := grp * chPerGroup * spatial
		hi := lo + chPerGroup*spatial
		mu := 0.0
		for i := lo; i < hi; i++ {
			mu += x.Data[i]
		}
		mu /= float64(n)
		varSum := 0.0
		for i := lo; i < hi; i++ {
			d := x.Data[i] - mu
			// The conversion rounds the product, so no GOARCH may fuse
			// it into the add (see the tensor package's gemm.go).
			varSum += float64(d * d)
		}
		std := math.Sqrt(varSum/float64(n) + g.Eps)
		if record {
			g.lastMu[grp] = mu
			g.lastStd[grp] = std
		}
		for c := grp * chPerGroup; c < (grp+1)*chPerGroup; c++ {
			ga, be := g.gamma.W.Data[c], g.beta.W.Data[c]
			base := c * spatial
			for i := 0; i < spatial; i++ {
				out.Data[base+i] = ga*(x.Data[base+i]-mu)/std + be
			}
		}
	})
	return out
}

// forGroups runs body(grp) for every group, sharding the (independent)
// groups over the worker pool when the volume (the shared work estimate of
// parallel.ForWork) warrants it. Each group touches only its own channel
// slab and per-group statistics, so the results are identical at any
// worker count.
func (g *GroupNorm) forGroups(work int, body func(grp int)) {
	parallel.ForWork(work, g.Groups, func(_, lo, hi int) {
		for grp := lo; grp < hi; grp++ {
			body(grp)
		}
	})
}

// Backward implements Layer.
func (g *GroupNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := g.lastX
	spatial := x.Dim(1) * x.Dim(2) * x.Dim(3)
	chPerGroup := g.C / g.Groups
	n := float64(g.lastN)
	gx := g.ar.New(x.Shape...)

	g.forGroups(x.Len(), func(grp int) {
		mu, std := g.lastMu[grp], g.lastStd[grp]
		// Accumulate the two group-wide reductions of the standard
		// normalisation backward pass: sum(dy*gamma) and sum(dy*gamma*xhat).
		var sumDg, sumDgXhat float64
		for c := grp * chPerGroup; c < (grp+1)*chPerGroup; c++ {
			ga := g.gamma.W.Data[c]
			base := c * spatial
			var dGamma, dBeta float64
			for i := 0; i < spatial; i++ {
				xhat := (x.Data[base+i] - mu) / std
				dy := grad.Data[base+i]
				dGamma += float64(dy * xhat)
				dBeta += dy
				sumDg += float64(dy * ga)
				sumDgXhat += float64(dy * ga * xhat)
			}
			g.gamma.G.Data[c] += dGamma
			g.beta.G.Data[c] += dBeta
		}
		for c := grp * chPerGroup; c < (grp+1)*chPerGroup; c++ {
			ga := g.gamma.W.Data[c]
			base := c * spatial
			for i := 0; i < spatial; i++ {
				xhat := (x.Data[base+i] - mu) / std
				dy := grad.Data[base+i]
				gx.Data[base+i] = (float64(dy*ga) - sumDg/n - xhat*sumDgXhat/n) / std
			}
		}
	})
	return gx
}

// Params implements Layer.
func (g *GroupNorm) Params() []*Param { return []*Param{g.gamma, g.beta} }

func (g *GroupNorm) setArena(a *tensor.Arena) { g.ar = a }

// precompute32 converts the scale/shift weights for the float32 inference
// mode.
func (g *GroupNorm) precompute32() {
	g.gamma32 = tensor.Convert32(g.gamma.W)
	g.beta32 = tensor.Convert32(g.beta.W)
}

// forward32 is the inference-only float32 forward pass. The group mean and
// variance accumulate in float64 — a float32 running sum over thousands of
// elements loses enough precision to move the normalisation visibly — and
// only the final per-element scale runs in float32. precompute32 must have
// run.
func (g *GroupNorm) forward32(a *tensor.Arena, x *tensor.T32) *tensor.T32 {
	if x.Rank() != 4 || x.Dim(0) != g.C {
		panic(fmt.Sprintf("nn: GroupNorm input shape %v, want [%d,H,V,M]", x.Shape, g.C))
	}
	spatial := x.Dim(1) * x.Dim(2) * x.Dim(3)
	chPerGroup := g.C / g.Groups
	n := float64(chPerGroup * spatial)

	out := a.New32(x.Shape...)
	g.forGroups(x.Len(), func(grp int) {
		lo := grp * chPerGroup * spatial
		hi := lo + chPerGroup*spatial
		mu := 0.0
		for _, v := range x.Data[lo:hi] {
			mu += float64(v)
		}
		mu /= n
		varSum := 0.0
		for _, v := range x.Data[lo:hi] {
			d := float64(v) - mu
			varSum += float64(d * d)
		}
		std := math.Sqrt(varSum/n + g.Eps)
		mu32 := float32(mu)
		for c := grp * chPerGroup; c < (grp+1)*chPerGroup; c++ {
			scale := float32(float64(g.gamma32.Data[c]) / std)
			be := g.beta32.Data[c]
			base := c * spatial
			for i := 0; i < spatial; i++ {
				// Rounded product, never fused: see forward.
				out.Data[base+i] = float32(scale*(x.Data[base+i]-mu32)) + be
			}
		}
	})
	return out
}
