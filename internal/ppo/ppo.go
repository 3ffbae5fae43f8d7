// Package ppo implements the PPO-trained baseline router of the paper's
// §4.2: the same U-Net agent used as a sequential Steiner-point selector,
// trained with Proximal Policy Optimization [21] (clipped surrogate
// objective) in an actor-critic setup whose critic is a separate small
// convolutional value network.
//
// Episodes select one Steiner point at a time from the masked softmax
// policy; the per-step reward is the telescoped routing-cost reduction
// (cost(s_t) − cost(s_{t+1})) / rc_0, so the undiscounted return from any
// state equals the paper's value target (rc_0 − c_final) / rc_0.
package ppo

import (
	"fmt"
	"math"
	"math/rand"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/nn"
	"oarsmt/internal/route"
	"oarsmt/internal/selector"
	"oarsmt/internal/tensor"
)

// Config parameterises PPO training.
type Config struct {
	Sizes            []layout.TrainingSize
	LayoutsPerSize   int // episodes per size per stage
	MinPins, MaxPins int
	// ClipEps is the PPO clipping radius (0.2 in [21]).
	ClipEps float64
	// Epochs is the number of PPO passes over each stage's rollouts.
	Epochs int
	// EntropyCoef weights the entropy bonus that keeps the policy from
	// collapsing early.
	EntropyCoef float64
	// LR and ValueLR are the Adam learning rates of policy and critic.
	LR, ValueLR float64
	// ValueHidden is the critic trunk width.
	ValueHidden int
	Seed        int64
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []layout.TrainingSize{{HV: 8, M: 2}}
	}
	if c.LayoutsPerSize <= 0 {
		c.LayoutsPerSize = 4
	}
	if c.MinPins < 3 {
		c.MinPins = 3
	}
	if c.MaxPins < c.MinPins {
		c.MaxPins = c.MinPins
	}
	if c.ClipEps <= 0 {
		c.ClipEps = 0.2
	}
	if c.Epochs <= 0 {
		c.Epochs = 2
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	if c.ValueLR <= 0 {
		c.ValueLR = 1e-3
	}
	if c.ValueHidden <= 0 {
		c.ValueHidden = 4
	}
	return c
}

// step is one transition of a rollout.
type step struct {
	instance  *layout.Instance
	extraPins []grid.VertexID
	action    grid.VertexID
	oldProb   float64
	ret       float64 // undiscounted return from this step
	value     float64 // critic estimate at collection time
}

// StageStats summarises one PPO stage.
type StageStats struct {
	Stage      int
	Episodes   int
	Steps      int
	MeanReturn float64
	PolicyLoss float64
	ValueLoss  float64
}

// Trainer holds the PPO actor-critic pair.
type Trainer struct {
	Cfg      Config
	Selector *selector.Selector
	Value    *nn.ValueNet

	rng   *rand.Rand
	optPi *nn.Adam
	optV  *nn.Adam
	stage int
}

// NewTrainer creates a PPO trainer over the selector, with a fresh value
// network.
func NewTrainer(sel *selector.Selector, cfg Config) *Trainer {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	vn := nn.NewValueNet(rng, selector.NumFeatures, cfg.ValueHidden)
	return &Trainer{
		Cfg:      cfg,
		Selector: sel,
		Value:    vn,
		rng:      rng,
		optPi:    nn.NewAdam(sel.Net.Params(), cfg.LR),
		optV:     nn.NewAdam(vn.Params(), cfg.ValueLR),
	}
}

// Stage returns the number of completed stages.
func (t *Trainer) Stage() int { return t.stage }

// rollout plays one episode on the instance and returns its steps.
func (t *Trainer) rollout(in *layout.Instance) ([]step, error) {
	router := route.NewRouter(in.Graph)
	base, err := router.OARMST(in.Pins)
	if err != nil {
		return nil, err
	}
	rc0 := base.Cost
	if rc0 <= 0 {
		return nil, fmt.Errorf("ppo: degenerate layout %q", in.Name)
	}

	var steps []step
	var extra []grid.VertexID
	prevCost := rc0
	maxSteps := in.NumPins() - 2
	for i := 0; i < maxSteps; i++ {
		statePins := append(append([]grid.VertexID(nil), in.Pins...), extra...)
		policy := t.Selector.PolicySoftmax(in.Graph, statePins)
		a, p := sampleAction(t.rng, policy)
		if a < 0 {
			break
		}
		v := t.Value.Forward(selector.Encode(in.Graph, statePins))
		terms := append(append([]grid.VertexID(nil), statePins...), a)
		tree, err := router.OARMST(terms)
		if err != nil {
			return nil, err
		}
		reward := (prevCost - tree.Cost) / rc0
		steps = append(steps, step{
			instance:  in,
			extraPins: append([]grid.VertexID(nil), extra...),
			action:    a,
			oldProb:   p,
			ret:       reward, // completed into a return below
			value:     v,
		})
		prevCost = tree.Cost
		extra = append(extra, a)
	}
	// Telescoped returns: ret_i = sum of rewards from i onwards.
	for i := len(steps) - 2; i >= 0; i-- {
		steps[i].ret += steps[i+1].ret
	}
	return steps, nil
}

func sampleAction(rng *rand.Rand, policy []float64) (grid.VertexID, float64) {
	u := rng.Float64()
	acc := 0.0
	lastPos := -1
	for i, p := range policy {
		if p <= 0 {
			continue
		}
		lastPos = i
		acc += p
		if u < acc {
			return grid.VertexID(i), p
		}
	}
	if lastPos < 0 {
		return -1, 0
	}
	// Floating-point shortfall: fall back to the last positive entry.
	return grid.VertexID(lastPos), policy[lastPos]
}

// RunStage collects a batch of rollouts and performs the PPO update.
func (t *Trainer) RunStage() (StageStats, error) {
	stats := StageStats{Stage: t.stage + 1}
	var steps []step
	for _, size := range t.Cfg.Sizes {
		spec := layout.TrainingSpec(size, t.Cfg.MinPins, t.Cfg.MaxPins)
		for i := 0; i < t.Cfg.LayoutsPerSize; i++ {
			in, err := layout.Random(t.rng, spec)
			if err != nil {
				return stats, fmt.Errorf("ppo: stage %d: %w", t.stage+1, err)
			}
			ep, err := t.rollout(in)
			if err != nil {
				return stats, fmt.Errorf("ppo: stage %d: %w", t.stage+1, err)
			}
			stats.Episodes++
			if len(ep) > 0 {
				stats.MeanReturn += ep[0].ret
			}
			steps = append(steps, ep...)
		}
	}
	if stats.Episodes > 0 {
		stats.MeanReturn /= float64(stats.Episodes)
	}
	stats.Steps = len(steps)
	if len(steps) == 0 {
		t.stage++
		stats.Stage = t.stage
		return stats, nil
	}

	pl, vl := t.update(steps)
	stats.PolicyLoss, stats.ValueLoss = pl, vl
	t.stage++
	stats.Stage = t.stage
	return stats, nil
}

// update runs Cfg.Epochs PPO passes over the steps and returns the final
// epoch's mean policy and value losses.
func (t *Trainer) update(steps []step) (policyLoss, valueLoss float64) {
	idxs := make([]int, len(steps))
	for i := range idxs {
		idxs[i] = i
	}
	for epoch := 0; epoch < t.Cfg.Epochs; epoch++ {
		t.rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		policyLoss, valueLoss = 0, 0
		for _, si := range idxs {
			s := steps[si]
			g := s.instance.Graph
			statePins := append(append([]grid.VertexID(nil), s.instance.Pins...), s.extraPins...)
			enc := selector.Encode(g, statePins)

			// Policy update with the clipped surrogate objective.
			logits := t.Selector.Net.Forward(enc)
			mask := selector.ValidMask(g, statePins)
			p := nn.MaskedSoftmax(logits.Data, mask)
			adv := s.ret - s.value
			ratio := 0.0
			if s.oldProb > 0 {
				ratio = p[s.action] / s.oldProb
			}
			clippedOut := (adv > 0 && ratio > 1+t.Cfg.ClipEps) ||
				(adv < 0 && ratio < 1-t.Cfg.ClipEps)
			surr := math.Min(ratio*adv, clamp(ratio, 1-t.Cfg.ClipEps, 1+t.Cfg.ClipEps)*adv)
			policyLoss += -surr

			grad := tensor.New(g.H, g.V, g.M)
			for id := range p {
				var gpi float64
				if !clippedOut {
					// d(ratio·adv)/dz_k = adv · ratio · (1{k=a} − p_k).
					ind := 0.0
					if grid.VertexID(id) == s.action {
						ind = 1
					}
					gpi = -adv * ratio * (ind - p[id])
				}
				if t.Cfg.EntropyCoef > 0 && p[id] > 0 {
					// Entropy bonus: loss −= c·H, dH/dz_k = −p_k(log p_k + H).
					h := entropy(p)
					gpi += float64(t.Cfg.EntropyCoef * p[id] * (math.Log(p[id]) + h))
				}
				grad.Data[id] = gpi
			}
			t.Selector.Net.Backward(grad)
			t.optPi.Step()

			// Value update toward the empirical return.
			v := t.Value.Forward(enc)
			diff := v - s.ret
			valueLoss += float64(diff * diff)
			t.Value.Backward(2 * diff)
			t.optV.Step()
		}
		policyLoss /= float64(len(steps))
		valueLoss /= float64(len(steps))
	}
	return policyLoss, valueLoss
}

func entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 0 {
			h -= float64(v * math.Log(v))
		}
	}
	return h
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
