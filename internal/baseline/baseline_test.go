package baseline

import (
	"math/rand"
	"testing"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/route"
)

func randomInstance(t *testing.T, seed int64, pins int) *layout.Instance {
	t.Helper()
	in, err := layout.Random(rand.New(rand.NewSource(seed)), layout.RandomSpec{
		H: 10, V: 10, MinM: 2, MaxM: 3,
		MinPins: pins, MaxPins: pins,
		MinObstacles: 8, MaxObstacles: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestAllAlgorithmsProduceValidTrees(t *testing.T) {
	in := randomInstance(t, 1, 6)
	for _, alg := range []Algorithm{Lin08, Liu14, Lin18} {
		res, err := New(alg).Route(in)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := res.Tree.Validate(in.Graph, in.Pins); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%v: elapsed = %v", alg, res.Elapsed)
		}
	}
}

func TestQualityOrderingOnAverage(t *testing.T) {
	// Lin08 loses implicit Steiner sharing, so across many layouts it must
	// be the most expensive on average; Lin18's extra retracing must be at
	// least as good as Liu14's single pass on average.
	var c08, c14, c18 float64
	n := 20
	for seed := int64(0); seed < int64(n); seed++ {
		in := randomInstance(t, 100+seed, 7)
		r08, err := New(Lin08).Route(in)
		if err != nil {
			t.Fatal(err)
		}
		r14, err := New(Liu14).Route(in)
		if err != nil {
			t.Fatal(err)
		}
		r18, err := New(Lin18).Route(in)
		if err != nil {
			t.Fatal(err)
		}
		c08 += r08.Tree.Cost
		c14 += r14.Tree.Cost
		c18 += r18.Tree.Cost
	}
	if c08 < c14 {
		t.Errorf("Lin08 avg cost %v should exceed Liu14 %v", c08/float64(n), c14/float64(n))
	}
	if c18 > c14*1.001 {
		t.Errorf("Lin18 avg cost %v should not exceed Liu14 %v", c18/float64(n), c14/float64(n))
	}
}

func TestLin18BoundedFallback(t *testing.T) {
	// A detour forced outside the bounded window must still route via the
	// unbounded fallback.
	g, err := grid.NewUniform(9, 9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Wall splitting the grid except the top row.
	for v := 0; v < 8; v++ {
		g.Block(g.Index(4, v, 0))
	}
	in := &layout.Instance{
		Graph: g,
		Pins:  []grid.VertexID{g.Index(0, 0, 0), g.Index(8, 0, 0)},
	}
	b := New(Lin18)
	b.BoundMargin = 0 // tightest window
	res, err := b.Route(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(g, in.Pins); err != nil {
		t.Fatal(err)
	}
	// Forced detour: right 8, up 8, down 8 = 24.
	if res.Tree.Cost != 24 {
		t.Errorf("detour cost = %v, want 24", res.Tree.Cost)
	}
}

func TestRetraceImprovesBadTree(t *testing.T) {
	// Hand-build a deliberately bad tree and verify retracing repairs it.
	g, err := grid.NewUniform(5, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := route.NewRouter(g)
	a := g.Index(0, 0, 0)
	b := g.Index(2, 0, 0)
	// Bad path: up and over instead of straight.
	tree := route.NewTreeAt(a)
	bad := []grid.VertexID{
		g.Index(0, 0, 0), g.Index(0, 1, 0), g.Index(1, 1, 0), g.Index(2, 1, 0), g.Index(2, 0, 0),
	}
	tree.AddPath(g, bad)
	if tree.Cost != 4 {
		t.Fatalf("bad tree cost = %v", tree.Cost)
	}
	better, improved := r.Retrace(tree, []grid.VertexID{a, b}, 3)
	if improved == 0 {
		t.Fatal("retrace found no improvement")
	}
	if better.Cost != 2 {
		t.Errorf("retraced cost = %v, want 2", better.Cost)
	}
	if err := better.Validate(g, []grid.VertexID{a, b}); err != nil {
		t.Fatal(err)
	}
}

func TestRetraceNeverWorsens(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		in := randomInstance(t, 200+seed, 6)
		r := route.NewRouter(in.Graph)
		tree, err := r.OARMST(in.Pins)
		if err != nil {
			t.Fatal(err)
		}
		after, _ := r.Retrace(tree, in.Pins, 3)
		if after.Cost > tree.Cost+1e-9 {
			t.Errorf("seed %d: retrace worsened %v -> %v", seed, tree.Cost, after.Cost)
		}
		if err := after.Validate(in.Graph, in.Pins); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestRetraceNoPassesIsIdentity(t *testing.T) {
	in := randomInstance(t, 300, 4)
	r := route.NewRouter(in.Graph)
	tree, err := r.OARMST(in.Pins)
	if err != nil {
		t.Fatal(err)
	}
	same, improved := r.Retrace(tree, in.Pins, 0)
	if same != tree || improved != 0 {
		t.Error("0-pass retrace should return the input tree")
	}
}

func TestAlgorithmString(t *testing.T) {
	if Lin08.String() != "Lin08[12]" || Liu14.String() != "Liu14[16]" || Lin18.String() != "Lin18[14]" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm should format")
	}
}

func TestRouteErrors(t *testing.T) {
	in := randomInstance(t, 400, 3)
	if _, err := (&Router{Alg: Algorithm(42)}).Route(in); err == nil {
		t.Error("unknown algorithm should fail")
	}
	// Blocked terminal.
	g, _ := grid.NewUniform(4, 4, 1, 1)
	g.Block(g.Index(1, 1, 0))
	bad := &layout.Instance{Graph: g, Pins: []grid.VertexID{g.Index(0, 0, 0), g.Index(1, 1, 0)}}
	for _, alg := range []Algorithm{Lin08, Lin18} {
		if _, err := New(alg).Route(bad); err == nil {
			t.Errorf("%v: blocked terminal should fail", alg)
		}
	}
}

func TestBoundedOARMSTMatchesUnboundedOnOpenGrid(t *testing.T) {
	// With no obstacles and a generous margin, bounded exploration must
	// find trees of the same cost as the unbounded construction.
	g, _ := grid.NewUniform(12, 12, 2, 3)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(11, 11, 1), g.Index(3, 9, 0), g.Index(8, 2, 1)}
	a, err := route.NewRouter(g).OARMST(pins)
	if err != nil {
		t.Fatal(err)
	}
	b, err := windowedPrim(route.NewRouter(g), pins, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Errorf("bounded %v vs unbounded %v with full-cover margin", b.Cost, a.Cost)
	}
	if err := b.Validate(g, pins); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkOARMSTBounded32x32 times Lin18's windowed construction on the
// instance BenchmarkOARMST32x32 in internal/route uses.
func BenchmarkOARMSTBounded32x32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := grid.NewUniform(32, 32, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		g.Block(grid.VertexID(rng.Intn(g.NumVertices())))
	}
	var terms []grid.VertexID
	for len(terms) < 8 {
		if id := grid.VertexID(rng.Intn(g.NumVertices())); !g.Blocked(id) {
			terms = append(terms, id)
		}
	}
	// Ensure routability by unblocking a clear row and column per layer.
	for i := 0; i < 32; i++ {
		for m := 0; m < 4; m++ {
			g.Unblock(g.Index(i, 0, m))
			g.Unblock(g.Index(0, i, m))
		}
	}
	r := route.NewRouter(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := windowedPrim(r, terms, 8); err != nil {
			b.Fatal(err)
		}
	}
}
