package route

import (
	"fmt"
	"sort"

	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
	"oarsmt/internal/grid"
)

// OARMST builds an obstacle-avoiding rectilinear minimum spanning tree
// connecting all terminals with the maze-router-based Prim's algorithm of
// [14]: the tree starts at one terminal and is repeatedly extended by the
// cheapest maze-routed path from any point of the current tree to the
// nearest unconnected terminal. Because new paths may attach to any tree
// vertex — not only terminals — the construction creates Steiner branching
// implicitly.
//
// The whole build runs one Dijkstra frontier rather than one search per
// attached terminal: once a path joins the tree, its new vertices are
// seeded at distance 0 into the same heap and popping resumes. Labels only
// ever decrease, so the entries they supersede are skipped as stale, and
// every vertex popped is settled at its exact distance from the current
// tree. The result is the tree a fresh multi-source search per terminal
// would build, bit for bit (see pathBack). Router.Bounds does not apply.
//
// Terminals are deduplicated; at least one is required. The result is
// deterministic: terminals are seeded from the smallest VertexID and all
// Dijkstra ties break on vertex ID.
func (r *Router) OARMST(terminals []grid.VertexID) (*Tree, error) {
	mOARMSTBuilds.Inc()
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
	r.nextEpoch()
	for _, t := range terms[1:] {
		r.pending[t] = r.epoch
	}
	r.heap = r.heap[:0]
	r.seen[terms[0]] = r.epoch
	r.dist[terms[0]] = 0
	r.heap.push(pair{0, terms[0]})

	pops, relaxations := 0, 0
	defer func() {
		mHeapPops.Add(int64(pops))
		mRelaxations.Add(int64(relaxations))
	}()
	var path []grid.VertexID
	for left := len(terms) - 1; left > 0; left-- {
		// One attach step: the unit route.searches counts and the
		// route.dijkstra fault point fires on.
		if r.cancelled() {
			return nil, fmt.Errorf("route: OARMST: %w", r.ctxErr)
		}
		r.ctxErr = nil
		if fault.Enabled() {
			if err := fault.Inject("route.dijkstra"); err != nil {
				r.ctxErr = err
				return nil, fmt.Errorf("route: OARMST: %w", err)
			}
		}
		mSearches.Inc()
		reached := grid.VertexID(-1)
		for len(r.heap) > 0 {
			pops++
			if pops%ctxCheckInterval == 0 && r.cancelled() {
				return nil, fmt.Errorf("route: OARMST: %w", r.ctxErr)
			}
			p := r.heap.pop()
			if p.d > r.dist[p.id] { // stale entry
				continue
			}
			if r.pending[p.id] == r.epoch {
				reached = p.id
				break
			}
			r.nbrBuf = r.g.Neighbors(p.id, r.nbrBuf[:0])
			for _, nb := range r.nbrBuf {
				nd := p.d + nb.Cost
				if r.seen[nb.ID] != r.epoch || nd < r.dist[nb.ID] {
					relaxations++
					r.seen[nb.ID] = r.epoch
					r.dist[nb.ID] = nd
					r.heap.push(pair{nd, nb.ID})
				}
			}
		}
		if reached < 0 {
			// Report a deterministic representative of the unreachable set.
			for _, t := range terms {
				if r.pending[t] == r.epoch {
					return nil, &ErrUnreachable{Terminal: t, Coord: r.g.CoordOf(t)}
				}
			}
		}
		r.pending[reached] = 0
		path = r.pathBack(reached, path[:0])
		for _, v := range tree.addPath(r.g, path) {
			r.dist[v] = 0
			r.heap.push(pair{0, v})
		}
	}
	return tree, nil
}

// pathBack returns the path from a just-settled vertex back to the tree
// (v first, ending on the first tree vertex reached). With strictly
// positive edge costs, the predecessor a fresh Dijkstra search records for
// v is the neighbour u it pops first among those with dist[u] + c(u,v) ==
// dist[v]: the tight neighbour with the smallest (dist[u], u). Every such
// neighbour is closer than v and so already settled at its exact distance,
// which lets the walk recover that predecessor chain without a prev array.
func (r *Router) pathBack(v grid.VertexID, path []grid.VertexID) []grid.VertexID {
	path = append(path, v)
	for r.dist[v] != 0 {
		best := grid.VertexID(-1)
		r.nbrBuf = r.g.Neighbors(v, r.nbrBuf[:0])
		for _, nb := range r.nbrBuf {
			u := nb.ID
			if r.seen[u] != r.epoch || r.dist[u]+nb.Cost != r.dist[v] {
				continue
			}
			if best < 0 || r.dist[u] < r.dist[best] || (r.dist[u] == r.dist[best] && u < best) {
				best = u
			}
		}
		v = best
		path = append(path, v)
	}
	return path
}

// SteinerResult is the outcome of a Steiner-point-guided tree construction.
type SteinerResult struct {
	Tree *Tree
	// Kept holds the irredundant Steiner points that survived in the final
	// tree (degree >= 3, paper §2.1); sorted ascending.
	Kept []grid.VertexID
	// Dropped holds the requested Steiner points that were removed as
	// redundant or rejected as invalid (blocked / duplicate of a pin).
	Dropped []grid.VertexID
}

// SteinerTree implements the OARMST router of paper §3.1: build the
// spanning tree over pins plus the selected Steiner points, remove
// redundant Steiner points (degree < 3 in the routed tree), and
// reconstruct the spanning tree over the pins and the remaining
// irredundant Steiner points. Removal and reconstruction repeat until no
// Steiner point is redundant (the set shrinks monotonically, so this
// terminates).
//
// Invalid Steiner points — blocked vertices or vertices that coincide with
// a pin or another Steiner point — are dropped up front rather than
// reported as errors, because a learned selector may legitimately propose
// them.
func (r *Router) SteinerTree(pins, steiner []grid.VertexID) (*SteinerResult, error) {
	ps := dedupSorted(pins)
	if len(ps) == 0 {
		return nil, fmt.Errorf("%w: route: SteinerTree needs at least one pin", errs.ErrInvalidLayout)
	}
	pinSet := make(map[grid.VertexID]struct{}, len(ps))
	for _, p := range ps {
		pinSet[p] = struct{}{}
	}

	res := &SteinerResult{}
	// Obstacles can seal off pockets of free vertices; a Steiner point in
	// a pocket could never join the tree, so reachability from the pins is
	// part of validity.
	reachable := r.reachableFrom(ps[0])
	if r.ctxErr != nil {
		return nil, fmt.Errorf("route: SteinerTree: %w", r.ctxErr)
	}
	sps := make([]grid.VertexID, 0, len(steiner))
	for _, s := range dedupSorted(steiner) {
		if _, isPin := pinSet[s]; isPin || r.g.Blocked(s) || !reachable[s] {
			res.Dropped = append(res.Dropped, s)
			continue
		}
		sps = append(sps, s)
	}

	for {
		terms := make([]grid.VertexID, 0, len(ps)+len(sps))
		terms = append(terms, ps...)
		terms = append(terms, sps...)
		tree, err := r.OARMST(terms)
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

// reachableFrom returns the set of free vertices reachable from the given
// vertex over unblocked edges (BFS, O(V+E)).
func (r *Router) reachableFrom(from grid.VertexID) []bool {
	reached := make([]bool, r.g.NumVertices())
	if r.g.Blocked(from) {
		return reached
	}
	reached[from] = true
	queue := []grid.VertexID{from}
	var buf []grid.Neighbor
	visits := 0
	for len(queue) > 0 {
		visits++
		if visits%ctxCheckInterval == 0 && r.cancelled() {
			return reached // partial; callers must consult r.ctxErr
		}
		v := queue[0]
		queue = queue[1:]
		buf = r.g.Neighbors(v, buf[:0])
		for _, nb := range buf {
			if !reached[nb.ID] {
				reached[nb.ID] = true
				queue = append(queue, nb.ID)
			}
		}
	}
	return reached
}

func dedupSorted(vs []grid.VertexID) []grid.VertexID {
	out := append([]grid.VertexID(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
