package nn

import (
	"fmt"
	"math"

	"oarsmt/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients and clears
// the gradients.
type Optimizer interface {
	Step()
	ZeroGrad()
}

// Adam implements the Adam optimizer with optional decoupled weight decay.
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	params []*Param
	m, v   []*tensor.Tensor
	t      int
}

// NewAdam returns an Adam optimizer over the parameters with the usual
// defaults (beta1 0.9, beta2 0.999, eps 1e-8).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		params: params,
	}
	for _, p := range params {
		a.m = append(a.m, tensor.New(p.W.Shape...))
		a.v = append(a.v, tensor.New(p.W.Shape...))
	}
	return a
}

// Step applies one Adam update and zeroes the gradients.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.W.Data {
			g := p.G.Data[j]
			if a.WeightDecay != 0 {
				p.W.Data[j] -= float64(a.LR * a.WeightDecay * p.W.Data[j])
			}
			m.Data[j] = float64(a.Beta1*m.Data[j]) + float64((1-a.Beta1)*g)
			v.Data[j] = float64(a.Beta2*v.Data[j]) + float64((1-a.Beta2)*g*g)
			mhat := m.Data[j] / bc1
			vhat := v.Data[j] / bc2
			p.W.Data[j] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
	a.ZeroGrad()
}

// ZeroGrad clears every parameter gradient.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.G.Zero()
	}
}

// AdamState is an exportable snapshot of an Adam optimizer's mutable
// state: the step counter and both moment estimates, ordered like the
// parameter slice the optimizer was built over. It is plain data (gob- and
// JSON-friendly) so training checkpoints can persist it; the copied
// float64 slices round-trip bit-exactly.
type AdamState struct {
	T    int
	M, V [][]float64
}

// State deep-copies the optimizer's mutable state for checkpointing.
func (a *Adam) State() AdamState {
	st := AdamState{T: a.t, M: make([][]float64, len(a.m)), V: make([][]float64, len(a.v))}
	for i := range a.m {
		st.M[i] = append([]float64(nil), a.m[i].Data...)
		st.V[i] = append([]float64(nil), a.v[i].Data...)
	}
	return st
}

// Restore overwrites the optimizer's mutable state from a snapshot taken
// by State on an optimizer over identically-shaped parameters. After a
// successful Restore, continued training is bit-identical to the run the
// snapshot was taken from.
func (a *Adam) Restore(st AdamState) error {
	if len(st.M) != len(a.m) || len(st.V) != len(a.v) {
		return fmt.Errorf("nn: adam state has %d/%d moment tensors, optimizer has %d", len(st.M), len(st.V), len(a.m))
	}
	for i := range a.m {
		if len(st.M[i]) != a.m[i].Len() || len(st.V[i]) != a.v[i].Len() {
			return fmt.Errorf("nn: adam state tensor %d has %d/%d values, want %d", i, len(st.M[i]), len(st.V[i]), a.m[i].Len())
		}
	}
	a.t = st.T
	for i := range a.m {
		copy(a.m[i].Data, st.M[i])
		copy(a.v[i].Data, st.V[i])
	}
	return nil
}

// SGD implements plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	params []*Param
	vel    []*tensor.Tensor
}

// NewSGD returns an SGD optimizer over the parameters.
func NewSGD(params []*Param, lr, momentum float64) *SGD {
	s := &SGD{LR: lr, Momentum: momentum, params: params}
	for _, p := range params {
		s.vel = append(s.vel, tensor.New(p.W.Shape...))
	}
	return s
}

// Step applies one SGD update and zeroes the gradients.
func (s *SGD) Step() {
	for i, p := range s.params {
		vel := s.vel[i]
		for j := range p.W.Data {
			vel.Data[j] = s.Momentum*vel.Data[j] + p.G.Data[j]
			p.W.Data[j] -= s.LR * vel.Data[j]
		}
	}
	s.ZeroGrad()
}

// ZeroGrad clears every parameter gradient.
func (s *SGD) ZeroGrad() {
	for _, p := range s.params {
		p.G.Zero()
	}
}

// ClipGradNorm rescales the accumulated gradients so their global L2 norm
// does not exceed maxNorm; it returns the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.G.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.G.Scale(scale)
		}
	}
	return norm
}
