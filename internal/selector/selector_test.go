package selector

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"oarsmt/internal/grid"
	"oarsmt/internal/nn"
)

func tinySelector(t *testing.T) *Selector {
	t.Helper()
	s, err := NewRandom(rand.New(rand.NewSource(1)),
		nn.UNetConfig{InChannels: NumFeatures, Base: 2, Depth: 1, Kernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEncodeChannels(t *testing.T) {
	g := grid.MustNew(3, 3, 2, []float64{10, 20}, []float64{30, 40}, 5)
	g.Block(g.Index(2, 2, 1))
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(1, 2, 1)}
	x := Encode(g, pins)
	if x.Dim(0) != NumFeatures || x.Dim(1) != 3 || x.Dim(2) != 3 || x.Dim(3) != 2 {
		t.Fatalf("encoded shape %v", x.Shape)
	}
	// Pin plane.
	if x.At(0, 0, 0, 0) != 1 || x.At(0, 1, 2, 1) != 1 {
		t.Error("pin plane missing pins")
	}
	if x.At(0, 1, 1, 0) != 0 {
		t.Error("pin plane has spurious entries")
	}
	// Obstacle plane.
	if x.At(1, 2, 2, 1) != 1 || x.At(1, 0, 0, 0) != 0 {
		t.Error("obstacle plane wrong")
	}
	// Cost planes normalised by max cost (40).
	if got := x.At(2, 0, 1, 0); got != 10.0/40 {
		t.Errorf("right cost at h=0 = %v, want 0.25", got)
	}
	if got := x.At(3, 0, 1, 0); got != 0 {
		t.Errorf("left cost at border = %v, want 0", got)
	}
	if got := x.At(3, 1, 1, 0); got != 10.0/40 {
		t.Errorf("left cost at h=1 = %v", got)
	}
	if got := x.At(4, 1, 0, 0); got != 30.0/40 {
		t.Errorf("up cost at v=0 = %v", got)
	}
	if got := x.At(5, 1, 0, 0); got != 0 {
		t.Errorf("down cost at v=0 border = %v", got)
	}
	// Via plane uniform.
	if got := x.At(6, 1, 1, 1); got != 5.0/40 {
		t.Errorf("via feature = %v", got)
	}
}

func TestEncodeCostRangeNormalised(t *testing.T) {
	g := grid.MustNew(4, 4, 1, []float64{1, 1000, 3}, []float64{7, 7, 7}, 4)
	x := Encode(g, []grid.VertexID{0})
	maxc := 0.0
	for i := g.NumVertices() * 2; i < x.Len(); i++ { // cost planes only
		if x.Data[i] > maxc {
			maxc = x.Data[i]
		}
		if x.Data[i] < 0 || x.Data[i] > 1 {
			t.Fatalf("cost feature %v outside [0,1]", x.Data[i])
		}
	}
	if maxc != 1 {
		t.Errorf("max normalised cost = %v, want 1", maxc)
	}
}

func TestEncodeLayerScaledCosts(t *testing.T) {
	g := grid.MustNew(3, 3, 2, []float64{2, 2}, []float64{2, 2}, 4)
	if err := g.SetLayerScales([]float64{1, 2}, []float64{2, 1}); err != nil {
		t.Fatal(err)
	}
	x := Encode(g, []grid.VertexID{0})
	// Max cost = max(2*2, 4) = 4.
	// Layer 0: right cost 2*1/4 = 0.5; up cost 2*2/4 = 1.
	if got := x.At(2, 1, 1, 0); got != 0.5 {
		t.Errorf("layer-0 right = %v, want 0.5", got)
	}
	if got := x.At(4, 1, 1, 0); got != 1.0 {
		t.Errorf("layer-0 up = %v, want 1", got)
	}
	// Layer 1: right 2*2/4 = 1; up 2*1/4 = 0.5.
	if got := x.At(2, 1, 1, 1); got != 1.0 {
		t.Errorf("layer-1 right = %v, want 1", got)
	}
	if got := x.At(4, 1, 1, 1); got != 0.5 {
		t.Errorf("layer-1 up = %v, want 0.5", got)
	}
}

func TestFSPRangeAndShape(t *testing.T) {
	s := tinySelector(t)
	g, _ := grid.NewUniform(6, 5, 3, 2)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(5, 4, 2), g.Index(3, 2, 1)}
	fsp := s.FSP(g, pins)
	if len(fsp) != g.NumVertices() {
		t.Fatalf("fsp length %d, want %d", len(fsp), g.NumVertices())
	}
	for i, p := range fsp {
		if p <= 0 || p >= 1 {
			t.Fatalf("fsp[%d] = %v outside (0,1)", i, p)
		}
	}
}

func TestArbitrarySizeInference(t *testing.T) {
	s := tinySelector(t)
	for _, dims := range [][3]int{{4, 4, 1}, {9, 5, 3}, {16, 16, 4}, {7, 13, 2}} {
		g, _ := grid.NewUniform(dims[0], dims[1], dims[2], 3)
		fsp := s.FSP(g, []grid.VertexID{0, grid.VertexID(g.NumVertices() - 1)})
		if len(fsp) != g.NumVertices() {
			t.Errorf("dims %v: fsp length %d", dims, len(fsp))
		}
	}
}

func TestValidMaskExcludesSealedPockets(t *testing.T) {
	// A free pocket at (0,0) walled off by obstacles must be invalid: a
	// Steiner point there could never join the routing tree. This is the
	// regression test for the mid-training unreachable-terminal panic.
	g, _ := grid.NewUniform(4, 4, 1, 1)
	g.Block(g.Index(1, 0, 0))
	g.Block(g.Index(0, 1, 0))
	g.Block(g.Index(1, 1, 0))
	pins := []grid.VertexID{g.Index(3, 3, 0), g.Index(2, 0, 0)}
	mask := ValidMask(g, pins)
	if mask[g.Index(0, 0, 0)] {
		t.Error("sealed pocket vertex should be invalid")
	}
	if !mask[g.Index(2, 2, 0)] {
		t.Error("reachable free vertex should be valid")
	}
	// No pins: reachability cannot be anchored; fall back to free-only.
	if m := ValidMask(g, nil); !m[g.Index(0, 0, 0)] {
		t.Error("pinless mask should only exclude blocked vertices")
	}
}

func TestValidMask(t *testing.T) {
	g, _ := grid.NewUniform(3, 3, 1, 1)
	g.Block(g.Index(1, 1, 0))
	pins := []grid.VertexID{g.Index(0, 0, 0)}
	mask := ValidMask(g, pins)
	if mask[g.Index(0, 0, 0)] {
		t.Error("pin should be invalid")
	}
	if mask[g.Index(1, 1, 0)] {
		t.Error("blocked vertex should be invalid")
	}
	if !mask[g.Index(2, 2, 0)] {
		t.Error("free vertex should be valid")
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.3}
	mask := []bool{true, true, true, true, false}
	got := TopK(scores, mask, 3)
	want := []grid.VertexID{1, 3, 2} // ties break on smaller ID
	if len(got) != 3 {
		t.Fatalf("TopK returned %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TopK[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// k larger than valid count.
	if got := TopK(scores, mask, 10); len(got) != 4 {
		t.Errorf("oversized k returned %d", len(got))
	}
	if got := TopK(scores, mask, 0); len(got) != 0 {
		t.Error("k=0 should return empty")
	}
}

// sortTopK is the full-sort TopK that the bounded selection replaced,
// kept as its oracle: every valid vertex sorted by (score desc, id asc),
// then the first k.
func sortTopK(scores []float64, mask []bool, k int) []grid.VertexID {
	type cand struct {
		id    grid.VertexID
		score float64
	}
	cands := make([]cand, 0, len(scores))
	for i, sc := range scores {
		if mask[i] {
			cands = append(cands, cand{grid.VertexID(i), sc})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].id < cands[j].id
	})
	if k > len(cands) {
		k = len(cands)
	}
	if k < 0 {
		k = 0
	}
	out := make([]grid.VertexID, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].id
	}
	return out
}

// FuzzTopK holds the bounded selection to the full sort: scores quantised
// to a few levels so ties are common, a fuzzed validity mask, and k from
// below zero to above the candidate count.
func FuzzTopK(f *testing.F) {
	f.Add([]byte{3, 1, 3, 0, 2, 3, 1}, int16(3))
	f.Add([]byte{}, int16(2))
	f.Add([]byte{0xff, 0x80, 0x7f, 0x00, 0x81}, int16(-1))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, int16(12))
	f.Fuzz(func(t *testing.T, data []byte, k16 int16) {
		scores := make([]float64, len(data))
		mask := make([]bool, len(data))
		for i, b := range data {
			// Low bit: validity; the rest: one of 16 finite levels.
			mask[i] = b&1 == 0
			scores[i] = float64(int8(b)>>4) * 0.25
		}
		k := int(k16 % 300)
		got, want := TopK(scores, mask, k), sortTopK(scores, mask, k)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d scores %v mask %v: TopK %v, sort %v", k, scores, mask, got, want)
		}
	})
}

// TestTopKMatchesSort runs the FuzzTopK comparison on random inputs of the
// production size: 16x16x4 candidates, a few hundred masked out.
func TestTopKMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(1024)
		scores := make([]float64, n)
		mask := make([]bool, n)
		levels := 1 + r.Intn(40)
		for i := range scores {
			scores[i] = float64(r.Intn(levels)) / float64(levels)
			mask[i] = r.Intn(4) != 0
		}
		for _, k := range []int{-1, 0, 1, 2, 8, 10, n / 2, n, n + 5} {
			if got, want := TopK(scores, mask, k), sortTopK(scores, mask, k); !slices.Equal(got, want) {
				t.Fatalf("iter %d k=%d: TopK %v, sort %v", iter, k, got, want)
			}
		}
	}
}

func TestSelectSteinerPoints(t *testing.T) {
	s := tinySelector(t)
	g, _ := grid.NewUniform(5, 5, 2, 2)
	pins := []grid.VertexID{
		g.Index(0, 0, 0), g.Index(4, 4, 0), g.Index(0, 4, 1), g.Index(4, 0, 1), g.Index(2, 0, 0),
	}
	sps := s.SelectSteinerPoints(g, pins)
	if len(sps) != len(pins)-2 {
		t.Fatalf("selected %d points, want %d", len(sps), len(pins)-2)
	}
	pinSet := map[grid.VertexID]bool{}
	for _, p := range pins {
		pinSet[p] = true
	}
	seen := map[grid.VertexID]bool{}
	for _, sp := range sps {
		if pinSet[sp] {
			t.Error("Steiner point coincides with a pin")
		}
		if g.Blocked(sp) {
			t.Error("Steiner point on obstacle")
		}
		if seen[sp] {
			t.Error("duplicate Steiner point")
		}
		seen[sp] = true
	}
	// Two pins: no Steiner points.
	if got := s.SelectSteinerPoints(g, pins[:2]); len(got) != 0 {
		t.Errorf("2-pin selection returned %d points", len(got))
	}
}

func TestPolicySoftmaxSumsToOne(t *testing.T) {
	s := tinySelector(t)
	g, _ := grid.NewUniform(4, 4, 2, 2)
	g.Block(g.Index(1, 1, 0))
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(3, 3, 1)}
	p := s.PolicySoftmax(g, pins)
	sum := 0.0
	for i, v := range p {
		if v < 0 {
			t.Fatalf("negative probability at %d", i)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("policy sums to %v", sum)
	}
	if p[g.Index(1, 1, 0)] != 0 || p[g.Index(0, 0, 0)] != 0 {
		t.Error("invalid vertices should have zero policy mass")
	}
}

func TestSelectorSaveLoad(t *testing.T) {
	s := tinySelector(t)
	g, _ := grid.NewUniform(5, 4, 2, 2)
	pins := []grid.VertexID{0, 5}
	want := s.FSP(g, pins)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.FSP(g, pins)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatal("loaded selector behaves differently")
		}
	}
}

func TestNewRandomRejectsWrongChannels(t *testing.T) {
	_, err := NewRandom(rand.New(rand.NewSource(1)),
		nn.UNetConfig{InChannels: 3, Base: 2, Depth: 1, Kernel: 3})
	if err == nil {
		t.Error("wrong channel count should be rejected")
	}
}

// TestLogitsCallerOwned pins that Logits returns a private copy: mutating
// it and re-running inference must not corrupt later answers.
func TestLogitsCallerOwned(t *testing.T) {
	s := tinySelector(t)
	g := grid.MustNew(4, 4, 1, []float64{1, 1, 1}, []float64{1, 1, 1}, 2)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(3, 3, 0)}

	first := s.Logits(g, pins)
	for i := range first {
		first[i] = math.Inf(1)
	}
	second := s.Logits(g, pins)
	for i, v := range second {
		if math.IsInf(v, 1) {
			t.Fatalf("logit[%d] aliases the previously returned slice", i)
		}
	}
}
