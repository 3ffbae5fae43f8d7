package route

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"oarsmt/internal/grid"
)

// binaryHeap is the binary swap heap pairHeap replaced, kept as the
// oracle for the pop order.
type binaryHeap []pair

func (h binaryHeap) less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].id < h[j].id
}

func (h *binaryHeap) push(p pair) {
	*h = append(*h, p)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h).less(parent, i) {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *binaryHeap) pop() pair {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// checkHeapOrder drives both heaps through the same push/pop script, one
// op per byte: a byte below 160 pushes (distance drawn from few values, so
// ties on d are common, and a small ID range, so equal pairs occur), any
// other byte pops. Both must pop the same sequence.
func checkHeapOrder(t *testing.T, script []byte) {
	t.Helper()
	var got pairHeap
	var want binaryHeap
	pop := func(step int) {
		g, w := got.pop(), want.pop()
		if g != w {
			t.Fatalf("step %d: 4-ary heap popped %+v, binary heap %+v", step, g, w)
		}
	}
	for i, b := range script {
		switch {
		case b < 160:
			p := pair{d: float64(b%7) * 0.5, id: grid.VertexID(b % 23)}
			got.push(p)
			want.push(p)
		case len(want) > 0:
			pop(i)
		}
	}
	for i := 0; len(want) > 0; i++ {
		pop(len(script) + i)
	}
	if len(got) != 0 {
		t.Fatalf("4-ary heap kept %d entries after the binary heap emptied", len(got))
	}
}

func TestHeapMatchesBinaryHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		script := make([]byte, rng.Intn(400))
		rng.Read(script)
		checkHeapOrder(t, script)
	}
}

func FuzzHeapOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 200, 4, 5, 255, 255, 9})
	f.Add([]byte("the 4-ary heap pops the binary heap's sequence"))
	f.Fuzz(checkHeapOrder)
}

// referenceRetrace is Retrace as it was before the bound search: the
// forward search runs for every dangling terminal. It is the oracle the
// pruned Retrace must match bit for bit.
func referenceRetrace(r *Router, t *Tree, terminals []grid.VertexID, maxPasses int) (*Tree, int) {
	if maxPasses < 1 || len(t.Edges) == 0 {
		return t, 0
	}
	adj := make(map[grid.VertexID][]grid.VertexID, t.NumVertices())
	for _, e := range t.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	termSet := make(map[grid.VertexID]struct{}, len(terminals))
	for _, term := range terminals {
		termSet[term] = struct{}{}
	}
	terms := dedupSorted(terminals)

	improvedPasses := 0
	for pass := 0; pass < maxPasses; pass++ {
		if r.cancelled() {
			break
		}
		improved := false
		for _, term := range terms {
			if len(adj[term]) != 1 {
				continue
			}
			path, pathCost := danglingPath(r.g, adj, termSet, term)
			if len(path) < 2 {
				continue
			}
			removePath(adj, path)
			sources := make([]grid.VertexID, 0, len(adj))
			for v, ns := range adj {
				if v == term {
					continue
				}
				if len(ns) > 0 || isTerm(termSet, v) {
					sources = append(sources, v)
				}
			}
			sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
			newPath, newCost, ok := r.ShortestToTarget(sources, func(v grid.VertexID) bool { return v == term })
			if ok && newCost < pathCost-1e-9 {
				addPathAdj(adj, newPath)
				improved = true
			} else {
				addPathAdj(adj, path)
			}
		}
		if !improved {
			break
		}
		improvedPasses++
	}
	if improvedPasses == 0 {
		return t, 0
	}
	edges := make([]Edge, 0, len(t.Edges))
	for v, ns := range adj {
		for _, w := range ns {
			if v < w {
				edges = append(edges, Edge{A: v, B: w})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		return edges[i].A < edges[j].A || (edges[i].A == edges[j].A && edges[i].B < edges[j].B)
	})
	out := newTree(terms[0])
	for _, e := range edges {
		out.addEdge(r.g, e.A, e.B)
	}
	return out, improvedPasses
}

// retraceInput builds the tree to retrace on one frontierInstance: the
// Steiner tree over the proposal (whose rebuilt paths retracing often
// improves), or the plain OARMST when the proposal fails.
func retraceInput(seed int64, kind uint8) (*grid.Graph, *Tree, []grid.VertexID, bool) {
	g, terms, sps := frontierInstance(seed, kind)
	if len(terms) == 0 {
		return nil, nil, nil, false
	}
	r := NewRouter(g)
	if st, err := r.SteinerTree(terms, sps); err == nil {
		return g, st.Tree, terms, true
	}
	tree, err := r.OARMST(terms)
	if err != nil {
		return nil, nil, nil, false
	}
	return g, tree, terms, true
}

// checkRetrace compares Retrace with referenceRetrace on one instance at
// the given pass budget, with or without Bounds around the terminals, and
// returns the skips it counted and the passes that improved.
func checkRetrace(t *testing.T, g *grid.Graph, tree *Tree, terms []grid.VertexID, passes int, bounded bool) (skipped int64, improved int) {
	t.Helper()
	ref, r := NewRouter(g), NewRouter(g)
	if bounded {
		b := BoundsOf(g, terms).Inflate(1, g)
		ref.Bounds, r.Bounds = &b, &b
	}
	wantCost, wantEdges := tree.Cost, slices.Clone(tree.Edges)
	searches := mSearches.Load()
	want, wantImproved := referenceRetrace(ref, tree, terms, passes)
	refSearches := mSearches.Load() - searches
	searches, skips := mSearches.Load(), mRetraceSkips.Load()
	got, gotImproved := r.Retrace(tree, terms, passes)
	gotSearches := mSearches.Load() - searches
	skipped = mRetraceSkips.Load() - skips

	what := fmt.Sprintf("Retrace(passes=%d, bounded=%v)", passes, bounded)
	requireSameTree(t, what, want, nil, got, nil)
	if gotImproved != wantImproved {
		t.Fatalf("%s: %d improved passes, reference %d", what, gotImproved, wantImproved)
	}
	if math.Float64bits(tree.Cost) != math.Float64bits(wantCost) || !slices.Equal(tree.Edges, wantEdges) {
		t.Fatalf("%s modified its input tree", what)
	}
	// Every skipped reroute is one forward search fewer.
	if gotSearches+skipped != refSearches {
		t.Fatalf("%s: %d forward searches and %d skips, reference %d searches", what, gotSearches, skipped, refSearches)
	}
	return skipped, gotImproved
}

func TestRetraceMatchesReference(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 100
	}
	var skips [2]int64 // by integer / non-integer costs
	improved := 0
	for seed := int64(0); seed < int64(trials); seed++ {
		kind := uint8(seed % 8)
		g, tree, terms, ok := retraceInput(seed, kind)
		if !ok {
			continue
		}
		for mode := 0; mode < 4; mode++ {
			n, imp := checkRetrace(t, g, tree, terms, 1+2*(mode>>1), mode&1 != 0)
			improved += imp
			if integerCosts(g) {
				skips[0] += n
			} else {
				skips[1] += n
			}
		}
	}
	// The differential check is only worth something if the bound
	// actually prunes on both cost families and reroutes do get kept.
	if skips[0] == 0 || skips[1] == 0 || improved == 0 {
		t.Fatalf("bound search skipped %d integer-cost and %d non-integer-cost reroutes, %d improved passes; want all > 0",
			skips[0], skips[1], improved)
	}
	t.Logf("skipped %d integer-cost and %d non-integer-cost reroutes; %d improved passes", skips[0], skips[1], improved)
}

func FuzzRetracePruned(f *testing.F) {
	for kind := uint8(0); kind < 8; kind++ {
		f.Add(int64(kind)*104729, kind, uint8(kind%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, kind, mode uint8) {
		g, tree, terms, ok := retraceInput(seed, kind)
		if !ok {
			return
		}
		checkRetrace(t, g, tree, terms, 1+int(mode>>1&3), mode&1 != 0)
	})
}

func TestIntegerCosts(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func() *grid.Graph
		want bool
	}{
		{"uniform", func() *grid.Graph { return grid.MustNew(3, 3, 2, []float64{1, 1}, []float64{1, 1}, 3) }, true},
		{"fractional dx", func() *grid.Graph { return grid.MustNew(3, 3, 1, []float64{1, 0.5}, []float64{1, 1}, 3) }, false},
		{"fractional via, one layer", func() *grid.Graph { return grid.MustNew(3, 3, 1, []float64{1, 1}, []float64{1, 1}, 0.5) }, true},
		{"fractional via", func() *grid.Graph { return grid.MustNew(3, 3, 2, []float64{1, 1}, []float64{1, 1}, 0.5) }, false},
		{"fractional scale", func() *grid.Graph {
			g := grid.MustNew(3, 3, 2, []float64{2, 2}, []float64{1, 1}, 1)
			if err := g.SetLayerScales([]float64{1, 1.7}, []float64{1.5, 2}); err != nil {
				panic(err)
			}
			return g
		}, false},
		{"integral products", func() *grid.Graph {
			g := grid.MustNew(3, 3, 2, []float64{2, 4}, []float64{1, 1}, 1)
			if err := g.SetLayerScales([]float64{1.5, 0.5}, []float64{1, 2}); err != nil {
				panic(err)
			}
			return g
		}, true},
		{"sums past 2^53", func() *grid.Graph { return grid.MustNew(3, 3, 1, []float64{1, 0x1p52}, []float64{1, 1}, 1) }, false},
	} {
		if got := integerCosts(tc.g()); got != tc.want {
			t.Errorf("%s: integerCosts = %v, want %v", tc.name, got, tc.want)
		}
	}
}
