package nn

import (
	"fmt"
	"math"

	"oarsmt/internal/parallel"
	"oarsmt/internal/tensor"
)

// BCEWithLogits computes the mean binary cross-entropy between sigmoid
// probabilities derived from the logits and the targets in [0, 1], plus
// the gradient wrt the logits. This is the selector's training loss
// (paper §3.5); fusing the sigmoid keeps the computation stable for large
// |logit|.
//
// The loss reduction always runs over the fixed chunks of
// parallel.SumChunks — the chunk partial sums may be computed by any
// number of workers but are merged in a fixed order, so the result is
// bit-identical at every worker count. The gradient is elementwise and
// each chunk writes a disjoint slice.
func BCEWithLogits(logits, targets *tensor.Tensor) (loss float64, grad *tensor.Tensor) {
	if !logits.SameShape(targets) {
		panic(fmt.Sprintf("nn: BCE shapes %v vs %v", logits.Shape, targets.Shape))
	}
	n := float64(logits.Len())
	grad = tensor.New(logits.Shape...)
	loss = parallel.SumChunks(logits.Len(), func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			z := logits.Data[i]
			y := targets.Data[i]
			// loss_i = max(z,0) - z*y + log(1+exp(-|z|))
			l := z
			if l < 0 {
				l = 0
			}
			az := z
			if az < 0 {
				az = -az
			}
			s += l - float64(z*y) + math.Log1p(math.Exp(-az))
			grad.Data[i] = (Sigmoid(z) - y) / n
		}
		return s
	})
	return loss / n, grad
}

// MaskedSoftmax turns logits into a probability distribution over the
// vertices where mask is true; masked-out entries get probability 0. It is
// used by the sequential-selector baselines (AlphaGo-like MCTS and PPO),
// whose policies are distributions over the next Steiner point.
func MaskedSoftmax(logits []float64, mask []bool) []float64 {
	if len(logits) != len(mask) {
		panic(fmt.Sprintf("nn: softmax lengths %d vs %d", len(logits), len(mask)))
	}
	out := make([]float64, len(logits))
	maxv := math.Inf(-1)
	any := false
	for i, m := range mask {
		if m {
			any = true
			if logits[i] > maxv {
				maxv = logits[i]
			}
		}
	}
	if !any {
		return out
	}
	sum := 0.0
	for i, m := range mask {
		if m {
			out[i] = math.Exp(logits[i] - maxv)
			sum += out[i]
		}
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// CrossEntropyGrad returns the loss and the gradient wrt the logits of a
// masked-softmax distribution fitted to a target distribution: the classic
// softmax cross-entropy, with masked entries receiving zero gradient. The
// target must sum to ~1 over the masked-in entries.
func CrossEntropyGrad(logits []float64, mask []bool, target []float64) (float64, []float64) {
	p := MaskedSoftmax(logits, mask)
	grad := make([]float64, len(logits))
	loss := 0.0
	for i, m := range mask {
		if !m {
			continue
		}
		if target[i] > 0 {
			loss -= target[i] * math.Log(math.Max(p[i], 1e-12))
		}
		grad[i] = p[i] - target[i]
	}
	return loss, grad
}
