package route

import (
	"math/rand"
	"testing"

	"oarsmt/internal/grid"
)

func benchInstance(b *testing.B, h, v, m, pins, blocked int) (*grid.Graph, []grid.VertexID) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	g, err := grid.NewUniform(h, v, m, 3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < blocked; i++ {
		g.Block(grid.VertexID(r.Intn(g.NumVertices())))
	}
	var terms []grid.VertexID
	for len(terms) < pins {
		id := grid.VertexID(r.Intn(g.NumVertices()))
		if !g.Blocked(id) {
			terms = append(terms, id)
		}
	}
	// Ensure routability by unblocking a clear row per layer.
	for hh := 0; hh < h; hh++ {
		for mm := 0; mm < m; mm++ {
			g.Unblock(g.Index(hh, 0, mm))
		}
	}
	for vv := 0; vv < v; vv++ {
		for mm := 0; mm < m; mm++ {
			g.Unblock(g.Index(0, vv, mm))
		}
	}
	return g, terms
}

// countWork starts counting route.heap_pops and route.relaxations; the
// returned func reports them per op as pops/op and relax/op. Every op of
// a route benchmark repeats the same searches, so the counts are exact
// and host-independent, and oarsmt-benchjson gates them with no band.
func countWork(b *testing.B) (report func()) {
	pops, relax := mHeapPops.Load(), mRelaxations.Load()
	return func() {
		b.ReportMetric(float64(mHeapPops.Load()-pops)/float64(b.N), "pops/op")
		b.ReportMetric(float64(mRelaxations.Load()-relax)/float64(b.N), "relax/op")
	}
}

func BenchmarkOARMST32x32(b *testing.B) {
	g, terms := benchInstance(b, 32, 32, 4, 8, 300)
	r := NewRouter(g)
	b.ReportAllocs()
	b.ResetTimer()
	defer countWork(b)()
	for i := 0; i < b.N; i++ {
		if _, err := r.OARMST(terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOARMST128x128(b *testing.B) {
	g, terms := benchInstance(b, 128, 128, 4, 64, 5000)
	r := NewRouter(g)
	// Warm the router's scratch so allocs/op is the steady state at any
	// -benchtime.
	if _, err := r.OARMST(terms); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	defer countWork(b)()
	for i := 0; i < b.N; i++ {
		if _, err := r.OARMST(terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteinerTree32x32(b *testing.B) {
	g, terms := benchInstance(b, 32, 32, 4, 8, 300)
	r := NewRouter(g)
	rng := rand.New(rand.NewSource(2))
	var sps []grid.VertexID
	for len(sps) < 6 {
		id := grid.VertexID(rng.Intn(g.NumVertices()))
		if !g.Blocked(id) {
			sps = append(sps, id)
		}
	}
	b.ResetTimer()
	defer countWork(b)()
	for i := 0; i < b.N; i++ {
		if _, err := r.SteinerTree(terms, sps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetrace32x32(b *testing.B) {
	g, terms := benchInstance(b, 32, 32, 4, 8, 300)
	r := NewRouter(g)
	tree, err := r.OARMST(terms)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	defer countWork(b)()
	for i := 0; i < b.N; i++ {
		r.Retrace(tree, terms, 2)
	}
}

func BenchmarkShortestPath64(b *testing.B) {
	g, _ := benchInstance(b, 64, 64, 4, 2, 1000)
	r := NewRouter(g)
	src := g.Index(0, 0, 0)
	dst := g.Index(63, 63, 3)
	b.ResetTimer()
	defer countWork(b)()
	for i := 0; i < b.N; i++ {
		if _, _, ok := r.ShortestPath(src, dst); !ok {
			b.Fatal("unreachable")
		}
	}
}
