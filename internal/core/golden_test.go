package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"oarsmt/internal/layout"
	"oarsmt/internal/models"
)

// updateGolden regenerates testdata/golden_routes.json from the current
// code. The recorded values pin the float64 routing results bit-for-bit:
// any change to the inference or construction path that alters a route,
// a cost bit or a kept Steiner point fails TestGoldenRoutes.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden routing fixtures")

const goldenPath = "testdata/golden_routes.json"

// goldenCase is one pinned route: the layout generator inputs plus the
// exact observed outputs. CostBits stores math.Float64bits of Tree.Cost so
// the comparison is bitwise, immune to formatting round trips.
type goldenCase struct {
	Seed      int64  `json:"seed"`
	H         int    `json:"h"`
	VDim      int    `json:"v"`
	M         int    `json:"m"`
	Pins      int    `json:"pins"`
	Obstacles int    `json:"obstacles"`
	CostBits  uint64 `json:"costBits"`
	EdgeHash  uint64 `json:"edgeHash"`
	Edges     int    `json:"edges"`
	Steiner   []int  `json:"steiner"`
	Used      bool   `json:"usedSteiner"`
	// Proposal is SelectSteinerPoints' pre-redundancy output and LogitHash
	// an FNV-1a hash over the math.Float64bits of every logit, so a change
	// to any inference bit fails even when no learned point is kept.
	Proposal  []int  `json:"proposal"`
	LogitHash uint64 `json:"logitHash"`
}

func goldenInstance(t *testing.T, c goldenCase) *layout.Instance {
	t.Helper()
	in, err := layout.Random(rand.New(rand.NewSource(c.Seed)), layout.RandomSpec{
		H: c.H, V: c.VDim, MinM: c.M, MaxM: c.M,
		MinPins: c.Pins, MaxPins: c.Pins,
		MinObstacles: c.Obstacles, MaxObstacles: c.Obstacles,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// treeEdgeHash folds the canonical edge list into an FNV-1a hash.
func treeEdgeHash(edges []routeEdge) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, e := range edges {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(e.a) >> (8 * i))
			buf[8+i] = byte(uint64(e.b) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

type routeEdge struct{ a, b int }

// logitHash folds the bits of every logit into an FNV-1a hash.
func logitHash(logits []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, z := range logits {
		b := math.Float64bits(z)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGoldenRoutes routes a spread of layouts with the embedded pretrained
// selector and compares every discrete and floating-point output bit for
// bit against the recorded fixtures. It is the cross-version determinism
// pin for the float64 inference path: tensor-kernel rewrites must keep the
// logits, proposals, routed trees, kept Steiner points and costs exactly
// identical. Seeds 1317 and 2239 are 16x16x4 layouts whose served tree
// keeps a learned point (about 1 in 200 random layouts of that shape does).
func TestGoldenRoutes(t *testing.T) {
	sel, err := models.New()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(sel)

	specs := []goldenCase{
		{Seed: 101, H: 8, VDim: 8, M: 2, Pins: 4, Obstacles: 6},
		{Seed: 102, H: 10, VDim: 10, M: 2, Pins: 5, Obstacles: 8},
		{Seed: 103, H: 12, VDim: 9, M: 3, Pins: 6, Obstacles: 10},
		{Seed: 104, H: 16, VDim: 16, M: 2, Pins: 7, Obstacles: 16},
		{Seed: 105, H: 9, VDim: 14, M: 4, Pins: 5, Obstacles: 12},
		{Seed: 106, H: 6, VDim: 6, M: 2, Pins: 3, Obstacles: 4},
		{Seed: 1317, H: 16, VDim: 16, M: 4, Pins: 10, Obstacles: 12},
		{Seed: 2239, H: 16, VDim: 16, M: 4, Pins: 10, Obstacles: 12},
	}

	got := make([]goldenCase, 0, len(specs))
	for _, c := range specs {
		in := goldenInstance(t, c)
		res, err := r.Route(t.Context(), in)
		if err != nil {
			t.Fatalf("seed %d: %v", c.Seed, err)
		}
		edges := make([]routeEdge, 0, len(res.Tree.Edges))
		for _, e := range res.Tree.Edges {
			edges = append(edges, routeEdge{int(e.A), int(e.B)})
		}
		c.CostBits = math.Float64bits(res.Tree.Cost)
		c.EdgeHash = treeEdgeHash(edges)
		c.Edges = len(edges)
		c.Steiner = make([]int, 0, len(res.SteinerPoints))
		for _, sp := range res.SteinerPoints {
			c.Steiner = append(c.Steiner, int(sp))
		}
		c.Used = res.UsedSteiner
		c.Proposal = make([]int, 0, len(in.Pins))
		for _, sp := range sel.SelectSteinerPoints(in.Graph, in.Pins) {
			c.Proposal = append(c.Proposal, int(sp))
		}
		c.LogitHash = logitHash(sel.Logits(in.Graph, in.Pins))
		got = append(got, c)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update-golden to create): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test produced %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Seed != g.Seed {
			t.Fatalf("case %d: seed mismatch (%d vs %d); regenerate the fixtures", i, w.Seed, g.Seed)
		}
		if g.CostBits != w.CostBits {
			t.Errorf("seed %d: cost %v (bits %016x), golden %v (bits %016x)",
				g.Seed, math.Float64frombits(g.CostBits), g.CostBits,
				math.Float64frombits(w.CostBits), w.CostBits)
		}
		if g.EdgeHash != w.EdgeHash || g.Edges != w.Edges {
			t.Errorf("seed %d: edge set hash %016x (%d edges), golden %016x (%d edges)",
				g.Seed, g.EdgeHash, g.Edges, w.EdgeHash, w.Edges)
		}
		if fmt.Sprint(g.Steiner) != fmt.Sprint(w.Steiner) || g.Used != w.Used {
			t.Errorf("seed %d: steiner %v used=%v, golden %v used=%v",
				g.Seed, g.Steiner, g.Used, w.Steiner, w.Used)
		}
		if fmt.Sprint(g.Proposal) != fmt.Sprint(w.Proposal) {
			t.Errorf("seed %d: proposal %v, golden %v", g.Seed, g.Proposal, w.Proposal)
		}
		if g.LogitHash != w.LogitHash {
			t.Errorf("seed %d: logit hash %016x, golden %016x", g.Seed, g.LogitHash, w.LogitHash)
		}
	}
}
