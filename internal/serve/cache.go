package serve

import (
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/route"
	"oarsmt/internal/store"
)

// The cache holds store.Records: a routed result in the canonical
// orientation of its layout (see canonicalize), under the layout's key.
// Coordinates rather than vertex IDs are stored so a record can be mapped
// into any requesting orientation without keeping the canonical graph
// alive.

// recordFromTree converts a routed result in the instance's own
// orientation into a canonical-space record under key, mapping every
// coordinate through toCanon.
func recordFromTree(in *layout.Instance, key store.Key, toCanon grid.Aug, tree *route.Tree, steiner []grid.VertexID, usedSteiner bool, proposed int) *store.Record {
	g := in.Graph
	ch, cv := g.H, g.V
	if toCanon.Rot%2 == 1 {
		ch, cv = g.V, g.H
	}
	fw := func(id grid.VertexID) grid.Coord {
		return toCanon.ApplyCoord(g.H, g.V, g.M, g.CoordOf(id))
	}
	r := &store.Record{
		Key: key,
		H:   ch, V: cv, M: g.M,
		Root:        fw(tree.Root),
		Edges:       make([][2]grid.Coord, len(tree.Edges)),
		Steiner:     make([]grid.Coord, len(steiner)),
		UsedSteiner: usedSteiner,
		Proposed:    proposed,
		Cost:        tree.Cost,
	}
	for i, ed := range tree.Edges {
		r.Edges[i] = [2]grid.Coord{fw(ed.A), fw(ed.B)}
	}
	for i, sp := range steiner {
		r.Steiner[i] = fw(sp)
	}
	return r
}

// treeFromRecord maps a canonical-space record into the requesting
// instance's orientation (via the inverse of its canonicalizing
// augmentation) and rebuilds the routed tree there. It validates the
// reconstruction against the request's graph and pins, so a hash
// collision, dimension mismatch or corrupt record yields ok == false (a
// cache miss) rather than a wrong answer.
func treeFromRecord(in *layout.Instance, toCanon grid.Aug, r *store.Record) (tree *route.Tree, steiner []grid.VertexID, ok bool) {
	g := in.Graph
	ch, cv := g.H, g.V
	if toCanon.Rot%2 == 1 {
		ch, cv = g.V, g.H
	}
	if r.H != ch || r.V != cv || r.M != g.M {
		return nil, nil, false
	}
	inv := inverseAug(toCanon)
	back := func(c grid.Coord) (grid.VertexID, bool) {
		rc := inv.ApplyCoord(r.H, r.V, r.M, c)
		if !g.InBounds(rc) {
			return 0, false
		}
		return g.IndexOf(rc), true
	}
	root, okRoot := back(r.Root)
	if !okRoot {
		return nil, nil, false
	}
	t := route.NewTreeAt(root)
	for _, ed := range r.Edges {
		a, okA := back(ed[0])
		b, okB := back(ed[1])
		if !okA || !okB || !adjacent(g, a, b) {
			return nil, nil, false
		}
		t.AddPath(g, []grid.VertexID{a, b})
	}
	steiner = make([]grid.VertexID, 0, len(r.Steiner))
	for _, c := range r.Steiner {
		sp, okSP := back(c)
		if !okSP {
			return nil, nil, false
		}
		steiner = append(steiner, sp)
	}
	if err := t.Validate(g, in.Pins); err != nil {
		return nil, nil, false
	}
	return t, steiner, true
}

// adjacent reports whether two vertices are grid-adjacent (EdgeCost panics
// on non-adjacent pairs, so mapped edges are checked first).
func adjacent(g *grid.Graph, a, b grid.VertexID) bool {
	ca, cb := g.CoordOf(a), g.CoordOf(b)
	dh, dv, dm := abs(cb.H-ca.H), abs(cb.V-ca.V), abs(cb.M-ca.M)
	return dh+dv+dm == 1
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
