package route

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"oarsmt/internal/errs"
	"oarsmt/internal/grid"
)

// referenceOARMST is the per-step construction OARMST replaced: a fresh
// multi-source Dijkstra from the whole tree for every attached terminal.
// It is the oracle the single-frontier build must match bit for bit.
func referenceOARMST(r *Router, terminals []grid.VertexID) (*Tree, error) {
	terms := dedupSorted(terminals)
	if len(terms) == 0 {
		return nil, fmt.Errorf("%w: route: OARMST needs at least one terminal", errs.ErrInvalidLayout)
	}
	for _, t := range terms {
		if r.g.Blocked(t) {
			return nil, fmt.Errorf("%w: route: terminal %v is blocked", errs.ErrInvalidLayout, r.g.CoordOf(t))
		}
	}

	tree := newTree(terms[0])
	remaining := make(map[grid.VertexID]struct{}, len(terms)-1)
	for _, t := range terms[1:] {
		remaining[t] = struct{}{}
	}

	sources := []grid.VertexID{terms[0]}
	for len(remaining) > 0 {
		if r.cancelled() {
			return nil, fmt.Errorf("route: OARMST: %w", r.ctxErr)
		}
		isTarget := func(v grid.VertexID) bool {
			_, isTerm := remaining[v]
			return isTerm
		}
		path, _, ok := r.ShortestToTarget(sources, isTarget)
		if !ok {
			if r.ctxErr != nil {
				return nil, fmt.Errorf("route: OARMST: %w", r.ctxErr)
			}
			var worst grid.VertexID = -1
			for v := range remaining {
				if worst == -1 || v < worst {
					worst = v
				}
			}
			return nil, &ErrUnreachable{Terminal: worst, Coord: r.g.CoordOf(worst)}
		}
		sources = append(sources, tree.addPath(r.g, path)...)
		delete(remaining, path[0])
	}
	return tree, nil
}

// referenceSteinerTree is SteinerTree over referenceOARMST.
func referenceSteinerTree(r *Router, pins, steiner []grid.VertexID) (*SteinerResult, error) {
	ps := dedupSorted(pins)
	if len(ps) == 0 {
		return nil, fmt.Errorf("%w: route: SteinerTree needs at least one pin", errs.ErrInvalidLayout)
	}
	pinSet := make(map[grid.VertexID]struct{}, len(ps))
	for _, p := range ps {
		pinSet[p] = struct{}{}
	}
	res := &SteinerResult{}
	reachable := r.reachableFrom(ps[0])
	sps := make([]grid.VertexID, 0, len(steiner))
	for _, s := range dedupSorted(steiner) {
		if _, isPin := pinSet[s]; isPin || r.g.Blocked(s) || !reachable[s] {
			res.Dropped = append(res.Dropped, s)
			continue
		}
		sps = append(sps, s)
	}
	for {
		terms := append(append([]grid.VertexID(nil), ps...), sps...)
		tree, err := referenceOARMST(r, terms)
		if err != nil {
			return nil, err
		}
		deg := tree.Degrees()
		kept := sps[:0]
		for _, s := range sps {
			if deg[s] >= 3 {
				kept = append(kept, s)
			} else {
				res.Dropped = append(res.Dropped, s)
			}
		}
		if len(kept) == len(sps) || len(sps) == 0 {
			res.Tree = tree
			res.Kept = append([]grid.VertexID(nil), kept...)
			sort.Slice(res.Dropped, func(i, j int) bool { return res.Dropped[i] < res.Dropped[j] })
			return res, nil
		}
		sps = append([]grid.VertexID(nil), kept...)
	}
}

// frontierInstance draws a random graph, terminal list and Steiner
// proposal. kind selects the cost family (bit 0-1: integral 1..3 for
// heavy ties, fractional, or inexact decimals) and whether per-layer
// direction scales are installed (bit 2). Terminals may repeat and the
// obstacles may seal terminals off.
func frontierInstance(seed int64, kind uint8) (*grid.Graph, []grid.VertexID, []grid.VertexID) {
	rng := rand.New(rand.NewSource(seed))
	h, v, m := 2+rng.Intn(11), 2+rng.Intn(11), 1+rng.Intn(3)
	cost := func() float64 {
		switch kind % 3 {
		case 0:
			return float64(1 + rng.Intn(3))
		case 1:
			return 0.25 + 3*rng.Float64()
		default:
			return float64(1+rng.Intn(9)) / 10
		}
	}
	dx := make([]float64, h-1)
	for i := range dx {
		dx[i] = cost()
	}
	dy := make([]float64, v-1)
	for i := range dy {
		dy[i] = cost()
	}
	g := grid.MustNew(h, v, m, dx, dy, cost())
	if kind&4 != 0 {
		hs, vs := make([]float64, m), make([]float64, m)
		for i := range hs {
			hs[i], vs[i] = 0.5+2*rng.Float64(), float64(1+rng.Intn(3))/2
		}
		if err := g.SetLayerScales(hs, vs); err != nil {
			panic(err)
		}
	}
	n := g.NumVertices()
	for i, nb := 0, rng.Intn(n/3+1); i < nb; i++ {
		g.Block(grid.VertexID(rng.Intn(n)))
	}
	for i, ne := 0, rng.Intn(h*v/4+1); i < ne; i++ {
		hh, vv, mm := rng.Intn(h), rng.Intn(v), rng.Intn(m)
		if rng.Intn(2) == 0 && hh < h-1 {
			g.BlockEdgeX(hh, vv, mm)
		} else if vv < v-1 {
			g.BlockEdgeY(hh, vv, mm)
		}
	}
	var terms []grid.VertexID
	for i, nt := 0, 1+rng.Intn(9); i < nt; i++ {
		id := grid.VertexID(rng.Intn(n))
		if g.Blocked(id) {
			continue
		}
		terms = append(terms, id)
		if rng.Intn(5) == 0 {
			terms = append(terms, id) // duplicate
		}
	}
	var steiner []grid.VertexID
	for i, ns := 0, rng.Intn(6); i < ns; i++ {
		steiner = append(steiner, grid.VertexID(rng.Intn(n)))
	}
	return g, terms, steiner
}

// requireSameTree fails unless both builds agree on the error text, the
// edge insertion order and the bits of the accumulated cost.
func requireSameTree(t *testing.T, what string, want *Tree, wantErr error, got *Tree, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("%s: cost %v (%#x), reference %v (%#x)", what, got.Cost, math.Float64bits(got.Cost), want.Cost, math.Float64bits(want.Cost))
	}
	if !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("%s: edges\n  %v\nreference\n  %v", what, got.Edges, want.Edges)
	}
}

// checkFrontier compares OARMST and SteinerTree against the per-step
// reference on one instance. The production router is reused across both
// calls (and runs OARMST twice) so stale epoch state would show.
func checkFrontier(t *testing.T, g *grid.Graph, terms, steiner []grid.VertexID) {
	t.Helper()
	ref, r := NewRouter(g), NewRouter(g)

	searches := mSearches.Load()
	want, wantErr := referenceOARMST(ref, terms)
	refSearches := mSearches.Load() - searches
	for run := 0; run < 2; run++ {
		searches = mSearches.Load()
		got, gotErr := r.OARMST(terms)
		requireSameTree(t, fmt.Sprintf("OARMST run %d", run), want, wantErr, got, gotErr)
		if n := mSearches.Load() - searches; n != refSearches {
			t.Fatalf("OARMST counted %d searches, reference %d", n, refSearches)
		}
	}

	wantST, wantErr := referenceSteinerTree(ref, terms, steiner)
	gotST, gotErr := r.SteinerTree(terms, steiner)
	var wantTree, gotTree *Tree
	if wantErr == nil && gotErr == nil {
		wantTree, gotTree = wantST.Tree, gotST.Tree
	}
	requireSameTree(t, "SteinerTree", wantTree, wantErr, gotTree, gotErr)
	if wantErr == nil {
		if !slices.Equal(gotST.Kept, wantST.Kept) || !slices.Equal(gotST.Dropped, wantST.Dropped) {
			t.Fatalf("SteinerTree kept/dropped %v/%v, reference %v/%v", gotST.Kept, gotST.Dropped, wantST.Kept, wantST.Dropped)
		}
	}
}

func TestOARMSTFrontierMatchesReference(t *testing.T) {
	sealed := func() (*grid.Graph, []grid.VertexID, []grid.VertexID) {
		g := grid.MustNew(5, 5, 2, []float64{1, 2, 1, 2}, []float64{2, 1, 2, 1}, 3)
		// Wall (4,4) off on both layers: its in-plane neighbours are
		// blocked and vias only join it to itself.
		for m := 0; m < 2; m++ {
			g.Block(g.Index(3, 4, m))
			g.Block(g.Index(4, 3, m))
		}
		terms := []grid.VertexID{g.Index(0, 0, 0), g.Index(4, 4, 1), g.Index(2, 2, 0), g.Index(0, 4, 1)}
		return g, terms, []grid.VertexID{g.Index(4, 4, 0)}
	}
	open := func(dx, dy []float64, via float64, hs, vs []float64) func() (*grid.Graph, []grid.VertexID, []grid.VertexID) {
		return func() (*grid.Graph, []grid.VertexID, []grid.VertexID) {
			g := grid.MustNew(len(dx)+1, len(dy)+1, 3, dx, dy, via)
			if hs != nil {
				if err := g.SetLayerScales(hs, vs); err != nil {
					panic(err)
				}
			}
			terms := []grid.VertexID{g.Index(0, 0, 0), g.Index(5, 5, 2), g.Index(0, 5, 1), g.Index(5, 0, 0), g.Index(2, 3, 1), g.Index(3, 2, 2)}
			return g, terms, []grid.VertexID{g.Index(2, 2, 0), g.Index(3, 3, 1), g.Index(0, 0, 0)}
		}
	}
	ones := []float64{1, 1, 1, 1, 1}
	cases := []struct {
		name string
		make func() (*grid.Graph, []grid.VertexID, []grid.VertexID)
	}{
		{"tie-heavy", open(ones, ones, 1, nil, nil)},
		{"fractional", open([]float64{0.1, 0.7, 0.3, 1.9, 0.2}, []float64{0.3, 0.1, 2.2, 0.6, 0.7}, 0.3, nil, nil)},
		{"layer-scales", open(ones, []float64{1, 2, 1, 2, 1}, 2, []float64{1, 3, 0.7}, []float64{3, 1, 0.9})},
		{"duplicates", func() (*grid.Graph, []grid.VertexID, []grid.VertexID) {
			g, terms, sps := open(ones, ones, 2, nil, nil)()
			return g, append(terms, terms[1], terms[0], terms[1]), append(sps, sps[0])
		}},
		{"single", func() (*grid.Graph, []grid.VertexID, []grid.VertexID) {
			g := grid.MustNew(3, 3, 1, []float64{1, 1}, []float64{1, 1}, 1)
			return g, []grid.VertexID{g.Index(1, 1, 0)}, []grid.VertexID{g.Index(0, 0, 0)}
		}},
		{"sealed", sealed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, terms, sps := tc.make()
			checkFrontier(t, g, terms, sps)
		})
	}
	t.Run("random", func(t *testing.T) {
		trials := 600
		if testing.Short() {
			trials = 150
		}
		for seed := int64(0); seed < int64(trials); seed++ {
			g, terms, sps := frontierInstance(seed, uint8(seed%8))
			checkFrontier(t, g, terms, sps)
		}
	})
}

func FuzzOARMSTFrontier(f *testing.F) {
	for kind := uint8(0); kind < 8; kind++ {
		f.Add(int64(kind)*7919, kind)
	}
	f.Add(int64(42), uint8(4))
	f.Add(int64(-3), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		g, terms, sps := frontierInstance(seed, kind)
		checkFrontier(t, g, terms, sps)
	})
}
