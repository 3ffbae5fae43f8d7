// Package selector implements the Steiner-point selector of the paper: the
// 7-channel Hanan-graph feature encoding (Fig 3) and the arbitrary-size
// 3-D residual U-Net agent (Fig 4) whose single inference yields the final
// selected probability (fsp) of every vertex. It also exposes the
// sequential softmax-policy view of the same network that the AlphaGo-like
// and PPO baseline routers use (paper §4.2).
package selector

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"oarsmt/internal/errs"
	"oarsmt/internal/grid"
	"oarsmt/internal/nn"
	"oarsmt/internal/tensor"
)

// NumFeatures is the number of input feature planes of the encoding:
// pin, obstacle, right/left/up/down edge cost, via cost (paper Fig 3).
const NumFeatures = 7

// Selector wraps the U-Net agent. Inference — Logits, FSP,
// SelectSteinerPoints, PolicySoftmax — only reads the shared weights and
// takes its scratch from a process-wide free list of arenas, so any number
// of goroutines may infer through one selector at once. Training goes
// through Net directly (Forward/Backward record state in the network) and
// must not overlap inference on the same selector.
type Selector struct {
	Net *nn.UNet3D
}

// arenas is the process-wide free list of inference scratch arenas. A
// warmed arena makes one inference near allocation-free; keeping at most
// GOMAXPROCS idle ones bounds the retained memory to what the cores can use
// at once. A sync.Pool would drop the warmed arenas at every GC.
var arenas struct {
	mu   sync.Mutex
	idle []*tensor.Arena
}

// getArena takes an idle arena from the free list, or a new one.
func getArena() *tensor.Arena {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	n := len(arenas.idle)
	if n == 0 {
		return tensor.NewArena()
	}
	a := arenas.idle[n-1]
	arenas.idle = arenas.idle[:n-1]
	return a
}

// putArena resets a and returns it to the free list; beyond GOMAXPROCS
// idle arenas it is left to the garbage collector.
func putArena(a *tensor.Arena) {
	a.Reset()
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	if len(arenas.idle) < runtime.GOMAXPROCS(0) {
		arenas.idle = append(arenas.idle, a)
	}
}

// newSelector wraps a network and attaches a fresh training arena: one
// warmed-up training pass performs near-zero heap allocations.
func newSelector(net *nn.UNet3D) *Selector {
	net.SetArena(tensor.NewArena())
	return &Selector{Net: net}
}

// New wraps an existing network, attaching a training arena to it: the
// network's Forward outputs become valid only until its next Forward.
// Training through Net remains correct — every backward completes before
// the next forward — but callers keeping raw Net.Forward outputs across
// passes must copy them.
func New(net *nn.UNet3D) *Selector { return newSelector(net) }

// NewRandom creates a selector with freshly initialised weights.
func NewRandom(r *rand.Rand, cfg nn.UNetConfig) (*Selector, error) {
	if cfg.InChannels != NumFeatures {
		return nil, fmt.Errorf("%w: selector: config wants %d input channels, encoding has %d",
			errs.ErrInvalidModel, cfg.InChannels, NumFeatures)
	}
	net, err := nn.NewUNet3D(r, cfg)
	if err != nil {
		return nil, err
	}
	return newSelector(net), nil
}

// Encode builds the [7, H, V, M] feature volume of a state: the layout's
// grid graph with the given pins, where previously selected Steiner points
// are passed as additional pins (paper §3.4 treats them as normal pins).
// The five cost features are normalised by the maximum cost in the layout
// so each lies in (0, 1]; absent neighbours (grid border) encode cost 0.
func Encode(g *grid.Graph, pins []grid.VertexID) *tensor.Tensor {
	x := tensor.New(NumFeatures, g.H, g.V, g.M)
	encodeInto(x.Data, g, pins)
	return x
}

// encodeInto fills an already-zeroed feature buffer of length
// NumFeatures*H*V*M with the Encode features.
func encodeInto(data []float64, g *grid.Graph, pins []grid.VertexID) {
	plane := g.H * g.V * g.M
	norm := g.MaxEdgeCost()
	if norm <= 0 {
		norm = 1
	}

	for _, p := range pins {
		data[0*plane+int(p)] = 1
	}
	viaFeat := g.ViaCost / norm
	scaleAt := func(s []float64, m int) float64 {
		if s == nil {
			return 1
		}
		return s[m]
	}
	idx := 0
	for h := 0; h < g.H; h++ {
		var right, left float64
		if h < g.H-1 {
			right = g.DX[h] / norm
		}
		if h > 0 {
			left = g.DX[h-1] / norm
		}
		for v := 0; v < g.V; v++ {
			var up, down float64
			if v < g.V-1 {
				up = g.DY[v] / norm
			}
			if v > 0 {
				down = g.DY[v-1] / norm
			}
			for m := 0; m < g.M; m++ {
				hs, vs := scaleAt(g.HScale, m), scaleAt(g.VScale, m)
				if g.Blocked(grid.VertexID(idx)) {
					data[1*plane+idx] = 1
				}
				data[2*plane+idx] = right * hs
				data[3*plane+idx] = left * hs
				data[4*plane+idx] = up * vs
				data[5*plane+idx] = down * vs
				data[6*plane+idx] = viaFeat
				idx++
			}
		}
	}
}

// logits runs one inference with all scratch — the feature volume and
// every activation — taken from a, and returns the raw logits, valid until
// a is reset.
func (s *Selector) logits(a *tensor.Arena, g *grid.Graph, pins []grid.VertexID) []float64 {
	x := a.New(NumFeatures, g.H, g.V, g.M)
	encodeInto(x.Data, g, pins)
	return s.Net.Infer(a, x).Data
}

// Logits runs one network inference and returns the raw per-vertex logits
// as a flat slice indexed by VertexID. The caller owns the returned slice.
func (s *Selector) Logits(g *grid.Graph, pins []grid.VertexID) []float64 {
	a := getArena()
	defer putArena(a)
	return slices.Clone(s.logits(a, g, pins))
}

// FSP runs one network inference and returns the final selected
// probability of every vertex (sigmoid of the logits), indexed by
// VertexID. This is the fsp(v) of paper Fig 5.
func (s *Selector) FSP(g *grid.Graph, pins []grid.VertexID) []float64 {
	a := getArena()
	defer putArena(a)
	logits := s.logits(a, g, pins)
	out := make([]float64, len(logits))
	for i, z := range logits {
		out[i] = nn.Sigmoid(z)
	}
	return out
}

// ValidMask returns, for each vertex, whether it may host a Steiner point:
// not blocked, not an existing pin (paper §3.4's validity rule without the
// priority constraint, which is state-dependent), and reachable from the
// pins. The reachability condition matters on obstacle-heavy layouts:
// obstacles can seal off pockets of free vertices, and a Steiner point
// inside a pocket could never join the routing tree.
func ValidMask(g *grid.Graph, pins []grid.VertexID) []bool {
	mask := make([]bool, g.NumVertices())
	if len(pins) == 0 {
		for i := range mask {
			mask[i] = !g.Blocked(grid.VertexID(i))
		}
		return mask
	}
	// BFS over free vertices from the first pin; pins are assumed to be
	// mutually routable (the routers verify this before selection).
	if g.Blocked(pins[0]) {
		return mask
	}
	queue := []grid.VertexID{pins[0]}
	mask[pins[0]] = true
	var buf []grid.Neighbor
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		buf = g.Neighbors(v, buf[:0])
		for _, nb := range buf {
			if !mask[nb.ID] {
				mask[nb.ID] = true
				queue = append(queue, nb.ID)
			}
		}
	}
	for _, p := range pins {
		mask[p] = false
	}
	return mask
}

// TopK returns the k valid vertices with the highest scores, in descending
// score order with ties broken on smaller VertexID. Fewer than k vertices
// are returned when fewer are valid. It keeps only the best k seen so far
// in an insertion-sorted buffer: O(len(scores)·k) worst case, and callers
// ask for at most a pin count of points.
func TopK(scores []float64, mask []bool, k int) []grid.VertexID {
	k = max(min(k, len(scores)), 0)
	top := make([]grid.VertexID, 0, k)
	if k == 0 {
		return top
	}
	for i, sc := range scores {
		if !mask[i] {
			continue
		}
		// Candidates arrive in ascending id, so one ranks above a kept
		// vertex only on a strictly higher score.
		if len(top) == k {
			if !(sc > scores[top[k-1]]) {
				continue
			}
		} else {
			top = append(top, 0)
		}
		j := len(top) - 1
		for ; j > 0 && sc > scores[top[j-1]]; j-- {
			top[j] = top[j-1]
		}
		top[j] = grid.VertexID(i)
	}
	return top
}

// SelectSteinerPoints performs the paper's one-inference selection (§3.1):
// run the network once and return the valid vertices with the top n-2
// highest probabilities, where n is the pin count.
func (s *Selector) SelectSteinerPoints(g *grid.Graph, pins []grid.VertexID) []grid.VertexID {
	k := len(pins) - 2
	if k <= 0 {
		return nil
	}
	fsp := s.FSP(g, pins)
	return TopK(fsp, ValidMask(g, pins), k)
}

// PolicySoftmax returns the sequential next-Steiner-point policy used by
// the AlphaGo-like and PPO baselines: a masked softmax of the logits over
// the valid vertices.
func (s *Selector) PolicySoftmax(g *grid.Graph, pins []grid.VertexID) []float64 {
	a := getArena()
	defer putArena(a)
	return nn.MaskedSoftmax(s.logits(a, g, pins), ValidMask(g, pins))
}

// Fingerprint returns the SHA-256 over the network's weights in canonical
// Params() order: for each parameter, its name, shape and float64 weight
// bits. Two selectors fingerprint equal exactly when every weight is
// bit-identical, and the Params() order is itself deterministic (it
// follows the network's layer structure), so the fingerprint is stable
// across processes and save/load round trips. The persistent route store
// versions its records by this hash, so loading a retrained model cleanly
// invalidates every stale route. The domain tag is versioned: v2 marks the
// removal of the reduced-precision inference mode, whose routes a v1 store
// could hold.
func (s *Selector) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte("oarsmt-selector-fp-v2"))
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range s.Net.Params() {
		h.Write([]byte(p.Name))
		putU64(uint64(len(p.W.Shape)))
		for _, d := range p.W.Shape {
			putU64(uint64(d))
		}
		for _, v := range p.W.Data {
			putU64(math.Float64bits(v))
		}
	}
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}

// Save writes the selector's network to w.
func (s *Selector) Save(w io.Writer) error { return s.Net.Save(w) }

// Load reads a selector saved with Save. Any invalid model file —
// truncated, corrupt, wrong version, wrong channel count — yields an
// error matching errs.ErrInvalidModel.
func Load(r io.Reader) (*Selector, error) {
	net, err := nn.LoadUNet3D(r)
	if err != nil {
		return nil, err
	}
	if net.Config.InChannels != NumFeatures {
		return nil, fmt.Errorf("%w: model has %d input channels, selector encoding has %d",
			errs.ErrInvalidModel, net.Config.InChannels, NumFeatures)
	}
	return newSelector(net), nil
}
