// Package route implements the routing substrate of the ML-OARSMT router:
// a multi-source Dijkstra maze router on the 3-D Hanan grid and the
// maze-router-based Prim's algorithm that builds an obstacle-avoiding
// rectilinear minimum spanning tree (OARMST) over a set of terminals,
// following the methodology of Lin et al. [14] that the paper adopts for
// its final tree-construction step (paper §3.1).
//
// A Router owns per-search scratch buffers sized to its graph, so repeated
// searches on large graphs allocate nothing. A Router is not safe for
// concurrent use; create one per goroutine.
package route

import (
	"context"
	"fmt"

	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
	"oarsmt/internal/grid"
	"oarsmt/internal/obs"
)

// Search-volume counters on the process-wide registry, resolved once so
// the hot loop only touches locals and a couple of atomics per search.
// Write-only telemetry: nothing here feeds a routing decision.
var (
	mSearches      = obs.Default.Counter("route.searches")
	mHeapPops      = obs.Default.Counter("route.heap_pops")
	mRelaxations   = obs.Default.Counter("route.relaxations")
	mOARMSTBuilds  = obs.Default.Counter("route.oarmst_builds")
	mRetracePasses = obs.Default.Counter("route.retrace_calls")
	mRetraceSkips  = obs.Default.Counter("route.retrace_skips")
)

// ctxCheckInterval is how many heap pops (or BFS visits) pass between
// context checks; a power of two keeps the check a cheap mask-and-branch.
const ctxCheckInterval = 1024

// Router runs maze-routing searches over a fixed grid graph.
type Router struct {
	g *grid.Graph

	dist  []float64
	prev  []grid.VertexID
	seen  []uint32 // epoch tags: seen[v] == epoch means dist[v] is valid
	epoch uint32
	// pending[v] == epoch marks a terminal OARMST has yet to attach.
	pending []uint32

	heap   pairHeap
	nbrBuf []grid.Neighbor

	// ctx, when non-nil, is consulted every ctxCheckInterval heap pops;
	// a cancelled search aborts with ok == false and records the cause in
	// ctxErr so the tree builders can surface it as an error.
	ctx    context.Context
	ctxErr error

	// Bounds, when non-nil, restricts ShortestToTarget (and ShortestPath)
	// to the given grid-space box. Used by the bounded-exploration
	// baseline ([14]); searches that fail inside the bounds are the
	// caller's responsibility to retry.
	Bounds *Bounds
}

// Bounds is an inclusive grid-space search window.
type Bounds struct {
	HLo, HHi int
	VLo, VHi int
	MLo, MHi int
}

// Contains reports whether the coordinate is inside the window.
func (b *Bounds) Contains(c grid.Coord) bool {
	return b.HLo <= c.H && c.H <= b.HHi &&
		b.VLo <= c.V && c.V <= b.VHi &&
		b.MLo <= c.M && c.M <= b.MHi
}

// Inflate grows the window by d in the H and V directions, clamped to the
// graph; the layer range always spans every layer (vias are cheap and
// bounding them harms quality disproportionately).
func (b Bounds) Inflate(d int, g *grid.Graph) Bounds {
	return Bounds{
		HLo: max(0, b.HLo-d), HHi: min(g.H-1, b.HHi+d),
		VLo: max(0, b.VLo-d), VHi: min(g.V-1, b.VHi+d),
		MLo: 0, MHi: g.M - 1,
	}
}

// BoundsOf returns the smallest window containing all the vertices.
func BoundsOf(g *grid.Graph, vs []grid.VertexID) Bounds {
	if len(vs) == 0 {
		return Bounds{}
	}
	c0 := g.CoordOf(vs[0])
	b := Bounds{HLo: c0.H, HHi: c0.H, VLo: c0.V, VHi: c0.V, MLo: c0.M, MHi: c0.M}
	for _, v := range vs[1:] {
		c := g.CoordOf(v)
		b.HLo = min(b.HLo, c.H)
		b.HHi = max(b.HHi, c.H)
		b.VLo = min(b.VLo, c.V)
		b.VHi = max(b.VHi, c.V)
		b.MLo = min(b.MLo, c.M)
		b.MHi = max(b.MHi, c.M)
	}
	return b
}

// NewRouter returns a Router for the graph.
func NewRouter(g *grid.Graph) *Router {
	n := g.NumVertices()
	return &Router{
		g:       g,
		dist:    make([]float64, n),
		prev:    make([]grid.VertexID, n),
		seen:    make([]uint32, n),
		pending: make([]uint32, n),
	}
}

// Graph returns the graph the router operates on.
func (r *Router) Graph() *grid.Graph { return r.g }

// SetContext installs a cancellation context on the router: subsequent
// searches poll it periodically and abort once it is cancelled, making
// per-request deadlines effective even inside long Dijkstra expansions on
// large graphs. A nil context (the default) disables polling.
func (r *Router) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		// A nil Done channel means the context can never be cancelled
		// (Background, TODO, or any value-only context): skip the polling
		// entirely.
		ctx = nil
	}
	r.ctx = ctx
	r.ctxErr = nil
}

// Err returns the context error that aborted the most recent search, or
// nil when the search ran to completion.
func (r *Router) Err() error { return r.ctxErr }

// cancelled polls the installed context; it records and reports the
// cancellation cause.
func (r *Router) cancelled() bool {
	if r.ctx == nil {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.ctxErr = err
		return true
	}
	return false
}

func (r *Router) nextEpoch() {
	r.epoch++
	if r.epoch == 0 { // wrapped: clear tags and restart
		clear(r.seen)
		clear(r.pending)
		r.epoch = 1
	}
}

// ShortestToTarget runs a multi-source Dijkstra from sources and returns
// the first (cheapest) vertex for which isTarget returns true, together
// with the path from that vertex back to its source (inclusive on both
// ends, target first) and the path cost. ok is false when no target is
// reachable (within the bounds, if set).
func (r *Router) ShortestToTarget(sources []grid.VertexID, isTarget func(grid.VertexID) bool) (path []grid.VertexID, cost float64, ok bool) {
	r.nextEpoch()
	r.ctxErr = nil
	if fault.Enabled() {
		// The injected error travels the same road as a context
		// cancellation: recorded on ctxErr, surfaced by the tree builders.
		if err := fault.Inject("route.dijkstra"); err != nil {
			r.ctxErr = err
			return nil, 0, false
		}
	}
	r.heap = r.heap[:0]
	pops, relaxations := 0, 0
	defer func() {
		mSearches.Inc()
		mHeapPops.Add(int64(pops))
		mRelaxations.Add(int64(relaxations))
	}()
	for _, s := range sources {
		if r.g.Blocked(s) {
			continue
		}
		if r.Bounds != nil && !r.Bounds.Contains(r.g.CoordOf(s)) {
			continue
		}
		if r.seen[s] == r.epoch {
			continue
		}
		r.seen[s] = r.epoch
		r.dist[s] = 0
		r.prev[s] = -1
		r.heap.push(pair{0, s})
	}
	for len(r.heap) > 0 {
		pops++
		if pops%ctxCheckInterval == 0 && r.cancelled() {
			return nil, 0, false
		}
		p := r.heap.pop()
		if p.d > r.dist[p.id] { // stale entry
			continue
		}
		if isTarget(p.id) {
			// Trace back to the source.
			path = path[:0]
			for v := p.id; v != -1; v = r.prev[v] {
				path = append(path, v)
			}
			return path, p.d, true
		}
		r.nbrBuf = r.g.Neighbors(p.id, r.nbrBuf[:0])
		for _, nb := range r.nbrBuf {
			if r.Bounds != nil && !r.Bounds.Contains(r.g.CoordOf(nb.ID)) {
				continue
			}
			nd := p.d + nb.Cost
			if r.seen[nb.ID] != r.epoch || nd < r.dist[nb.ID] {
				relaxations++
				r.seen[nb.ID] = r.epoch
				r.dist[nb.ID] = nd
				r.prev[nb.ID] = p.id
				r.heap.push(pair{nd, nb.ID})
			}
		}
	}
	return nil, 0, false
}

// ShortestPath returns the cheapest path between two vertices (from src,
// ending at dst) and its cost.
func (r *Router) ShortestPath(src, dst grid.VertexID) ([]grid.VertexID, float64, bool) {
	return r.ShortestToTarget([]grid.VertexID{src}, func(v grid.VertexID) bool { return v == dst })
}

// pair is a heap entry; ties on distance break on smaller vertex ID so
// routing is fully deterministic.
type pair struct {
	d  float64
	id grid.VertexID
}

// less is the strict (d, id) order every search pops in.
func (p pair) less(q pair) bool {
	return p.d < q.d || (p.d == q.d && p.id < q.id)
}

// pairHeap is a 4-ary min-heap under pair.less. Both sifts move a hole and
// write the moving entry once. The order is total, so any correct heap
// pops the same sequence: a search settles the same vertices with the
// same labels whatever the arity.
type pairHeap []pair

func (h *pairHeap) push(p pair) {
	s := append(*h, p)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !p.less(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = p
	*h = s
}

func (h *pairHeap) pop() pair {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if s[j].less(s[m]) {
				m = j
			}
		}
		if !s[m].less(last) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = last
	return top
}

// ErrUnreachable is returned when a terminal cannot be connected.
type ErrUnreachable struct {
	Terminal grid.VertexID
	Coord    grid.Coord
}

func (e *ErrUnreachable) Error() string {
	return fmt.Sprintf("route: terminal %d at %v is unreachable", e.Terminal, e.Coord)
}

// Is makes every unreachable-terminal error match the module's ErrNoPath
// sentinel under errors.Is, without losing the structured terminal/coord
// detail available through errors.As.
func (e *ErrUnreachable) Is(target error) bool { return target == errs.ErrNoPath }
