package route

import (
	"math"
	"sort"

	"oarsmt/internal/grid"
)

// Retrace performs path-assessed retracing in the spirit of [14]: for each
// terminal that dangles on a degree-1 path, the path from the terminal to
// its first branch point (or to another terminal) is ripped up and the
// terminal is re-routed against the remaining tree; the reroute is kept
// only when it is strictly cheaper. Passes repeat until a pass finds no
// improvement or maxPasses is reached.
//
// Most reroutes lose. Before the forward search, a Dijkstra from the
// detached terminal (boundSearch) looks for any tree vertex closer than
// the ripped-up path; when it proves there is none, the forward search
// could only reject, so the old path goes back without running it. When
// the bound cannot prove that, the forward search runs, so every kept
// route and its tie-breaks are the forward search's own.
//
// The input tree is not modified; the (possibly improved) result is
// returned together with the number of passes that found an improvement.
func (r *Router) Retrace(t *Tree, terminals []grid.VertexID, maxPasses int) (*Tree, int) {
	if maxPasses < 1 || len(t.Edges) == 0 {
		return t, 0
	}
	mRetracePasses.Inc()
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
	scale := 1.0 // exact path sums: the bound uses the forward search's limit
	if !integerCosts(r.g) {
		scale = boundScale(r.g)
	}

	improvedPasses := 0
	for pass := 0; pass < maxPasses; pass++ {
		if r.cancelled() {
			// A cancelled retrace returns the best tree found so far; the
			// tree builders surface the deadline, retracing never has to.
			break
		}
		improved := false
		for _, term := range terms {
			if len(adj[term]) != 1 {
				continue // internal terminal: nothing dangles
			}
			path, pathCost := danglingPath(r.g, adj, termSet, term)
			if len(path) < 2 {
				continue
			}
			removePath(adj, path)
			// The forward search keeps a reroute when newCost < pathCost-1e-9.
			if !r.boundSearch(adj, termSet, term, (pathCost-1e-9)*scale) {
				mRetraceSkips.Inc()
				addPathAdj(adj, path)
				continue
			}
			sources := make([]grid.VertexID, 0, len(adj))
			for v := range adj {
				if seeds(adj, termSet, term, v) {
					sources = append(sources, v)
				}
			}
			// Deterministic source order (map iteration is random).
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

	// Rebuild the tree over sorted edges: inserting in adjacency-map order
	// would make both Edges order and the float Cost accumulation (addition
	// is not associative) vary run to run.
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

// boundSearch runs a Dijkstra outward from the detached terminal over the
// unbounded graph and reports whether it may reach a vertex that seeds
// the forward search at a label below limit. It stops at the first such vertex or at the first popped label
// at or above limit. A false answer proves the forward search rejects the
// reroute: the two searches add the same edge costs in opposite order,
// and limit covers the rounding between them (see integerCosts and
// boundScale). Router.Bounds is ignored: an unbounded distance is a lower
// bound of the bounded one. A cancelled search proves nothing and returns
// true, so the forward search runs and meets the cancellation at its own
// poll.
func (r *Router) boundSearch(adj map[grid.VertexID][]grid.VertexID, termSet map[grid.VertexID]struct{}, term grid.VertexID, limit float64) bool {
	r.nextEpoch()
	r.heap = r.heap[:0]
	r.seen[term] = r.epoch
	r.dist[term] = 0
	r.heap.push(pair{0, term})
	pops, relaxations := 0, 0
	defer func() {
		mHeapPops.Add(int64(pops))
		mRelaxations.Add(int64(relaxations))
	}()
	for len(r.heap) > 0 {
		pops++
		if pops%ctxCheckInterval == 0 && r.cancelled() {
			return true
		}
		p := r.heap.pop()
		if p.d > r.dist[p.id] { // stale entry
			continue
		}
		if p.d >= limit {
			return false
		}
		if seeds(adj, termSet, term, p.id) {
			return true
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
	return false
}

// seeds reports whether v seeds the forward search that reroutes the
// detached terminal term: a vertex still on the tree, or a terminal. The
// terminal itself never does, or the "reroute" would reach itself at zero
// cost and leave it disconnected.
func seeds(adj map[grid.VertexID][]grid.VertexID, termSet map[grid.VertexID]struct{}, term, v grid.VertexID) bool {
	return v != term && (len(adj[v]) > 0 || isTerm(termSet, v))
}

// integerCosts reports whether float64 path sums on g are exact: every
// edge cost is an integer and a simple path's sum, at most |V| times the
// largest cost, stays below 2^53. Then the forward and the bound search
// compute the same label for the same path whatever the order of
// addition, and the bound can use the forward comparison's own limit.
func integerCosts(g *grid.Graph) bool {
	maxCost := 0.0
	integer := func(c float64) bool {
		maxCost = max(maxCost, c)
		return c == math.Trunc(c)
	}
	if g.M > 1 && !integer(g.ViaCost) {
		return false
	}
	for m := 0; m < g.M; m++ {
		for h := range g.DX {
			if !integer(g.CostX(h, m)) {
				return false
			}
		}
		for v := range g.DY {
			if !integer(g.CostY(v, m)) {
				return false
			}
		}
	}
	return float64(g.NumVertices())*maxCost < 0x1p53
}

// boundScale is the factor that widens the limit when path sums round.
// A simple path has k < n = |V| edges, and float64 addition of k positive
// costs lands within a factor 1±γ of their exact sum, γ = nu/(1-nu) with
// u = 2^-53. The forward label f of the detached terminal is such a sum
// along its own path, so f ≥ (1-γ)D for the exact distance D to the
// nearest source; the bound search labels that source at most (1+γ)D.
// If the bound search finds no source below L·(1+4nu), then
// (1+γ)D ≥ L·(1+4nu)(1-u)², the (1-u)² covering the rounding of the
// scale and of the product, so f ≥ L·(1+4nu)(1-u)²(1-γ)/(1+γ) ≥ L for
// any grid (nu ≤ 2^-22), and the forward search rejects.
func boundScale(g *grid.Graph) float64 {
	return 1 + float64(float64(4*g.NumVertices())*0x1p-53)
}

// danglingPath walks from a degree-1 terminal through degree-2
// non-terminal vertices and returns the vertex sequence (terminal first,
// anchor last) and the cost of its edges. The anchor — a branch point,
// another terminal, or a higher-degree vertex — stays in the tree.
func danglingPath(g *grid.Graph, adj map[grid.VertexID][]grid.VertexID, termSet map[grid.VertexID]struct{}, term grid.VertexID) ([]grid.VertexID, float64) {
	path := []grid.VertexID{term}
	cost := 0.0
	prev := grid.VertexID(-1)
	cur := term
	for {
		var next grid.VertexID = -1
		for _, n := range adj[cur] {
			if n != prev {
				next = n
				break
			}
		}
		if next < 0 {
			break
		}
		cost += g.EdgeCost(cur, next)
		path = append(path, next)
		if len(adj[next]) != 2 || isTerm(termSet, next) {
			break // anchor reached
		}
		prev, cur = cur, next
	}
	return path, cost
}

func isTerm(termSet map[grid.VertexID]struct{}, v grid.VertexID) bool {
	_, ok := termSet[v]
	return ok
}

func removePath(adj map[grid.VertexID][]grid.VertexID, path []grid.VertexID) {
	for i := 0; i+1 < len(path); i++ {
		removeAdj(adj, path[i], path[i+1])
		removeAdj(adj, path[i+1], path[i])
	}
}

func removeAdj(adj map[grid.VertexID][]grid.VertexID, a, b grid.VertexID) {
	ns := adj[a]
	for i, n := range ns {
		if n == b {
			ns[i] = ns[len(ns)-1]
			adj[a] = ns[:len(ns)-1]
			return
		}
	}
}

func addPathAdj(adj map[grid.VertexID][]grid.VertexID, path []grid.VertexID) {
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if !hasAdj(adj, a, b) {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
}

func hasAdj(adj map[grid.VertexID][]grid.VertexID, a, b grid.VertexID) bool {
	for _, n := range adj[a] {
		if n == b {
			return true
		}
	}
	return false
}
