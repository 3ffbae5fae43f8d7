package route

import (
	"math/rand"
	"testing"

	"oarsmt/internal/grid"
)

func uniform(t *testing.T, h, v, m int) *grid.Graph {
	t.Helper()
	g, err := grid.NewUniform(h, v, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestShortestPathStraight(t *testing.T) {
	g := uniform(t, 5, 5, 1)
	r := NewRouter(g)
	path, cost, ok := r.ShortestPath(g.Index(0, 0, 0), g.Index(4, 0, 0))
	if !ok {
		t.Fatal("path not found")
	}
	if cost != 4 {
		t.Errorf("cost = %v, want 4", cost)
	}
	if len(path) != 5 {
		t.Errorf("path length = %d, want 5", len(path))
	}
	// Path is traced target-first.
	if path[0] != g.Index(4, 0, 0) || path[len(path)-1] != g.Index(0, 0, 0) {
		t.Errorf("path endpoints wrong: %v ... %v", path[0], path[len(path)-1])
	}
}

func TestShortestPathAroundObstacle(t *testing.T) {
	// Wall across the middle column except the top row.
	g := uniform(t, 5, 5, 1)
	for v := 0; v < 4; v++ {
		g.Block(g.Index(2, v, 0))
	}
	r := NewRouter(g)
	_, cost, ok := r.ShortestPath(g.Index(0, 0, 0), g.Index(4, 0, 0))
	if !ok {
		t.Fatal("detour path not found")
	}
	// Detour: up 4, right 4, down 4 = 12.
	if cost != 12 {
		t.Errorf("detour cost = %v, want 12", cost)
	}
}

func TestShortestPathUsesVias(t *testing.T) {
	// Full wall on layer 0; the route must go up a layer and back (via=2).
	g := uniform(t, 5, 3, 2)
	for v := 0; v < 3; v++ {
		g.Block(g.Index(2, v, 0))
	}
	r := NewRouter(g)
	_, cost, ok := r.ShortestPath(g.Index(0, 0, 0), g.Index(4, 0, 0))
	if !ok {
		t.Fatal("multi-layer path not found")
	}
	// 4 horizontal + 2 vias = 4 + 4 = 8.
	if cost != 8 {
		t.Errorf("cost = %v, want 8", cost)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := uniform(t, 3, 3, 1)
	// Box in the corner vertex.
	g.Block(g.Index(1, 0, 0))
	g.Block(g.Index(0, 1, 0))
	g.Block(g.Index(1, 1, 0))
	r := NewRouter(g)
	if _, _, ok := r.ShortestPath(g.Index(0, 0, 0), g.Index(2, 2, 0)); ok {
		t.Error("walled-off target should be unreachable")
	}
}

func TestShortestRespectsEdgeBlocks(t *testing.T) {
	g := uniform(t, 3, 1, 1)
	g.BlockEdgeX(1, 0, 0) // between (1,0,0) and (2,0,0); both vertices open
	r := NewRouter(g)
	if _, _, ok := r.ShortestPath(g.Index(0, 0, 0), g.Index(2, 0, 0)); ok {
		t.Error("edge-blocked route should be unreachable in a 3x1 grid")
	}
}

func TestShortestWeightedPrefersCheapRows(t *testing.T) {
	// DY[0] = 1 makes the bottom detour cheaper than the direct row if the
	// direct row's X steps are expensive... here instead make one column
	// interval expensive and verify the cost accounts for it.
	g := grid.MustNew(3, 2, 1, []float64{100, 1}, []float64{1}, 2)
	r := NewRouter(g)
	_, cost, ok := r.ShortestPath(g.Index(0, 0, 0), g.Index(2, 0, 0))
	if !ok {
		t.Fatal("no path")
	}
	// Only route: 100 + 1 (no alternative columns exist).
	if cost != 101 {
		t.Errorf("cost = %v, want 101", cost)
	}
}

func TestMultiSourceChoosesNearest(t *testing.T) {
	g := uniform(t, 9, 1, 1)
	r := NewRouter(g)
	sources := []grid.VertexID{g.Index(0, 0, 0), g.Index(8, 0, 0)}
	target := g.Index(6, 0, 0)
	path, cost, ok := r.ShortestToTarget(sources, func(v grid.VertexID) bool { return v == target })
	if !ok {
		t.Fatal("no path")
	}
	if cost != 2 {
		t.Errorf("cost = %v, want 2 (from the nearer source)", cost)
	}
	if path[len(path)-1] != g.Index(8, 0, 0) {
		t.Error("path should originate at the nearer source")
	}
}

func TestBoundsRestrictSearch(t *testing.T) {
	g := uniform(t, 5, 5, 1)
	// Wall forcing a detour through row 4.
	for v := 0; v < 4; v++ {
		g.Block(g.Index(2, v, 0))
	}
	r := NewRouter(g)
	b := Bounds{HLo: 0, HHi: 4, VLo: 0, VHi: 2, MLo: 0, MHi: 0}
	r.Bounds = &b
	if _, _, ok := r.ShortestPath(g.Index(0, 0, 0), g.Index(4, 0, 0)); ok {
		t.Error("detour outside bounds should fail")
	}
	r.Bounds = nil
	if _, _, ok := r.ShortestPath(g.Index(0, 0, 0), g.Index(4, 0, 0)); !ok {
		t.Error("unbounded retry should succeed")
	}
}

func TestBoundsOfAndInflate(t *testing.T) {
	g := uniform(t, 10, 10, 3)
	vs := []grid.VertexID{g.Index(2, 3, 1), g.Index(7, 1, 2)}
	b := BoundsOf(g, vs)
	if b != (Bounds{HLo: 2, HHi: 7, VLo: 1, VHi: 3, MLo: 1, MHi: 2}) {
		t.Errorf("BoundsOf = %+v", b)
	}
	in := b.Inflate(3, g)
	if in != (Bounds{HLo: 0, HHi: 9, VLo: 0, VHi: 6, MLo: 0, MHi: 2}) {
		t.Errorf("Inflate = %+v", in)
	}
}

func TestOARMSTTwoPins(t *testing.T) {
	g := uniform(t, 6, 6, 1)
	r := NewRouter(g)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(5, 5, 0)}
	tree, err := r.OARMST(pins)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cost != 10 {
		t.Errorf("cost = %v, want 10 (Manhattan)", tree.Cost)
	}
	if err := tree.Validate(g, pins); err != nil {
		t.Error(err)
	}
}

func TestOARMSTThreePinsAndSteinerRecovery(t *testing.T) {
	// Three pins in a T: (0,3), (6,3), (3,0). The optimal Steiner tree
	// costs 9 (trunk along row 3 plus a branch down column 3), but plain
	// maze-Prim is blind to which of the equal-cost staircases it routes
	// first, so it may pay up to 12. Supplying the Steiner point (3,3)
	// must recover the optimum — this is precisely the gap the paper's
	// learned Steiner-point selector exploits.
	g := uniform(t, 7, 7, 1)
	r := NewRouter(g)
	pins := []grid.VertexID{g.Index(0, 3, 0), g.Index(6, 3, 0), g.Index(3, 0, 0)}
	tree, err := r.OARMST(pins)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(g, pins); err != nil {
		t.Fatal(err)
	}
	if tree.Cost < 9 || tree.Cost > 12 {
		t.Errorf("plain OARMST cost = %v, want within [9, 12]", tree.Cost)
	}

	res, err := r.SteinerTree(pins, []grid.VertexID{g.Index(3, 3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.Cost != 9 {
		t.Errorf("Steiner-guided cost = %v, want 9", res.Tree.Cost)
	}
	if deg := res.Tree.Degrees()[g.Index(3, 3, 0)]; deg != 3 {
		t.Errorf("Steiner point degree = %d, want 3", deg)
	}
	if len(res.Kept) != 1 {
		t.Errorf("kept = %v, want the supplied Steiner point", res.Kept)
	}
}

func TestOARMSTSinglePin(t *testing.T) {
	g := uniform(t, 3, 3, 1)
	r := NewRouter(g)
	tree, err := r.OARMST([]grid.VertexID{g.Index(1, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cost != 0 || len(tree.Edges) != 0 {
		t.Errorf("single-pin tree should be empty, got cost %v", tree.Cost)
	}
	if err := tree.Validate(g, []grid.VertexID{g.Index(1, 1, 0)}); err != nil {
		t.Error(err)
	}
}

func TestOARMSTDuplicateTerminals(t *testing.T) {
	g := uniform(t, 4, 4, 1)
	r := NewRouter(g)
	p := g.Index(0, 0, 0)
	q := g.Index(3, 3, 0)
	tree, err := r.OARMST([]grid.VertexID{p, q, p, q})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cost != 6 {
		t.Errorf("cost = %v, want 6", tree.Cost)
	}
}

func TestOARMSTErrors(t *testing.T) {
	g := uniform(t, 4, 4, 1)
	r := NewRouter(g)
	if _, err := r.OARMST(nil); err == nil {
		t.Error("empty terminal set should fail")
	}
	g.Block(g.Index(1, 1, 0))
	if _, err := r.OARMST([]grid.VertexID{g.Index(1, 1, 0)}); err == nil {
		t.Error("blocked terminal should fail")
	}
	// Unreachable: wall off a pin.
	g2 := uniform(t, 3, 3, 1)
	g2.Block(g2.Index(1, 0, 0))
	g2.Block(g2.Index(0, 1, 0))
	g2.Block(g2.Index(1, 1, 0))
	r2 := NewRouter(g2)
	_, err := r2.OARMST([]grid.VertexID{g2.Index(0, 0, 0), g2.Index(2, 2, 0)})
	if err == nil {
		t.Fatal("unreachable terminal should fail")
	}
	if _, ok := err.(*ErrUnreachable); !ok {
		t.Errorf("error type = %T, want *ErrUnreachable", err)
	}
}

func TestSteinerTreeHelpfulPoint(t *testing.T) {
	// Four pins at the corners of a plus; the centre is the ideal Steiner
	// point and must be kept (degree 4).
	g := uniform(t, 9, 9, 1)
	r := NewRouter(g)
	pins := []grid.VertexID{
		g.Index(4, 0, 0), g.Index(4, 8, 0), g.Index(0, 4, 0), g.Index(8, 4, 0),
	}
	center := g.Index(4, 4, 0)
	res, err := r.SteinerTree(pins, []grid.VertexID{center})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 1 || res.Kept[0] != center {
		t.Errorf("kept = %v, want centre", res.Kept)
	}
	if res.Tree.Cost != 16 {
		t.Errorf("cost = %v, want 16", res.Tree.Cost)
	}
	if err := res.Tree.Validate(g, pins); err != nil {
		t.Error(err)
	}
}

func TestSteinerTreeRemovesRedundant(t *testing.T) {
	// Two pins on a line; any Steiner point ends with degree <= 2 and must
	// be dropped, leaving the plain two-pin route.
	g := uniform(t, 9, 9, 1)
	r := NewRouter(g)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(8, 0, 0)}
	sp := g.Index(4, 0, 0) // on the path: pure pass-through
	res, err := r.SteinerTree(pins, []grid.VertexID{sp})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 0 {
		t.Errorf("kept = %v, want none", res.Kept)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != sp {
		t.Errorf("dropped = %v, want [%d]", res.Dropped, sp)
	}
	if res.Tree.Cost != 8 {
		t.Errorf("cost = %v, want 8", res.Tree.Cost)
	}
}

func TestSteinerTreeRejectsInvalidPoints(t *testing.T) {
	g := uniform(t, 5, 5, 1)
	g.Block(g.Index(2, 2, 0))
	r := NewRouter(g)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(4, 4, 0)}
	res, err := r.SteinerTree(pins, []grid.VertexID{
		g.Index(2, 2, 0), // blocked
		g.Index(0, 0, 0), // coincides with a pin
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 2 {
		t.Errorf("dropped = %v, want both invalid points", res.Dropped)
	}
	if err := res.Tree.Validate(g, pins); err != nil {
		t.Error(err)
	}
}

func TestSteinerTreeOffTreePointRemovedWithoutCostIncrease(t *testing.T) {
	// A Steiner point far from the pins initially drags the tree out to
	// it; redundancy removal must restore the plain route.
	g := uniform(t, 9, 9, 1)
	r := NewRouter(g)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(8, 0, 0)}
	far := g.Index(4, 8, 0)
	res, err := r.SteinerTree(pins, []grid.VertexID{far})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 0 {
		t.Errorf("kept = %v, want none", res.Kept)
	}
	if res.Tree.Cost != 8 {
		t.Errorf("cost = %v, want 8 after removal", res.Tree.Cost)
	}
}

func TestSteinerTreeDropsUnreachablePoint(t *testing.T) {
	// Steiner point in a walled-off pocket: the router must drop it and
	// still produce a valid tree over the pins.
	g := uniform(t, 4, 4, 1)
	g.Block(g.Index(1, 0, 0))
	g.Block(g.Index(0, 1, 0))
	g.Block(g.Index(1, 1, 0))
	pocket := g.Index(0, 0, 0)
	pins := []grid.VertexID{g.Index(2, 0, 0), g.Index(3, 3, 0)}
	r := NewRouter(g)
	res, err := r.SteinerTree(pins, []grid.VertexID{pocket})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 0 {
		t.Errorf("kept = %v, want none", res.Kept)
	}
	found := false
	for _, d := range res.Dropped {
		if d == pocket {
			found = true
		}
	}
	if !found {
		t.Error("pocket point should be reported as dropped")
	}
	if err := res.Tree.Validate(g, pins); err != nil {
		t.Fatal(err)
	}
}

func TestTreeValidateCatchesCorruption(t *testing.T) {
	g := uniform(t, 4, 4, 1)
	r := NewRouter(g)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(3, 0, 0)}
	tree, err := r.OARMST(pins)
	if err != nil {
		t.Fatal(err)
	}
	tree.Cost += 5
	if err := tree.Validate(g, pins); err == nil {
		t.Error("cost corruption not caught")
	}
	tree.Cost -= 5
	if err := tree.Validate(g, []grid.VertexID{g.Index(3, 3, 0)}); err == nil {
		t.Error("missing terminal not caught")
	}
}

func TestWirelengthByAxis(t *testing.T) {
	g := uniform(t, 3, 3, 2) // via cost 2
	r := NewRouter(g)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(2, 2, 1)}
	tree, err := r.OARMST(pins)
	if err != nil {
		t.Fatal(err)
	}
	hor, ver, via := tree.WirelengthByAxis(g)
	if hor+ver+via != tree.Cost {
		t.Errorf("axis decomposition %v+%v+%v != cost %v", hor, ver, via, tree.Cost)
	}
	if via != 2 {
		t.Errorf("via component = %v, want 2", via)
	}
}

func TestOARMSTOrderInvariant(t *testing.T) {
	// The construction is seeded from the smallest terminal and all ties
	// break deterministically, so the input order of terminals must not
	// change the result.
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		g, _ := grid.NewUniform(8, 8, 2, 2)
		var pins []grid.VertexID
		used := map[grid.VertexID]bool{}
		for len(pins) < 5 {
			id := grid.VertexID(r.Intn(g.NumVertices()))
			if !used[id] {
				used[id] = true
				pins = append(pins, id)
			}
		}
		router := NewRouter(g)
		a, err := router.OARMST(pins)
		if err != nil {
			t.Fatal(err)
		}
		shuffled := append([]grid.VertexID(nil), pins...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b, err := router.OARMST(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cost != b.Cost || len(a.Edges) != len(b.Edges) {
			t.Fatalf("trial %d: order-dependent OARMST: %v/%d vs %v/%d",
				trial, a.Cost, len(a.Edges), b.Cost, len(b.Edges))
		}
	}
}

// TestOARMSTRandomInvariants is a randomized property test: on random
// layouts the OARMST must validate, span all pins, and never cost more
// than the sum of sequential 2-pin routes (a loose upper bound).
func TestOARMSTRandomInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		h, v, m := 4+r.Intn(8), 4+r.Intn(8), 1+r.Intn(3)
		g, err := grid.NewUniform(h, v, m, float64(1+r.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < h*v*m/10; i++ {
			g.Block(grid.VertexID(r.Intn(h * v * m)))
		}
		var pins []grid.VertexID
		for len(pins) < 3+r.Intn(4) {
			id := grid.VertexID(r.Intn(h * v * m))
			if !g.Blocked(id) {
				pins = append(pins, id)
			}
		}
		router := NewRouter(g)
		tree, err := router.OARMST(pins)
		if err != nil {
			if _, ok := err.(*ErrUnreachable); ok {
				continue // random blocks can legitimately disconnect pins
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tree.Validate(g, pins); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Upper bound: chain of pairwise shortest paths.
		var bound float64
		feasible := true
		for i := 0; i+1 < len(pins); i++ {
			_, c, ok := router.ShortestPath(pins[i], pins[i+1])
			if !ok {
				feasible = false
				break
			}
			bound += c
		}
		if feasible && tree.Cost > bound+1e-9 {
			t.Errorf("trial %d: tree cost %v exceeds chain bound %v", trial, tree.Cost, bound)
		}
	}
}

// TestSteinerNeverWorseAfterRemoval checks the engineering invariant the
// final router relies on: with redundancy removal, adding arbitrary
// Steiner points never leaves pass-through junk in the final tree.
func TestSteinerNeverLeavesLowDegreePoints(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		h, v := 5+r.Intn(6), 5+r.Intn(6)
		g, _ := grid.NewUniform(h, v, 2, 2)
		var pins, sps []grid.VertexID
		used := map[grid.VertexID]bool{}
		for len(pins) < 3+r.Intn(3) {
			id := grid.VertexID(r.Intn(g.NumVertices()))
			if !used[id] {
				used[id] = true
				pins = append(pins, id)
			}
		}
		for len(sps) < r.Intn(4) {
			id := grid.VertexID(r.Intn(g.NumVertices()))
			if !used[id] {
				used[id] = true
				sps = append(sps, id)
			}
		}
		router := NewRouter(g)
		res, err := router.SteinerTree(pins, sps)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		deg := res.Tree.Degrees()
		for _, s := range res.Kept {
			if deg[s] < 3 {
				t.Errorf("trial %d: kept Steiner point has degree %d", trial, deg[s])
			}
		}
		if err := res.Tree.Validate(g, pins); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
