// Package baseline implements the algorithmic ML-OARSMT comparators of
// the paper's evaluation, re-created from their published methodologies
// (the original executables are not redistributable; see DESIGN.md):
//
//   - Lin08 ([12]): the earliest spanning-graph multilayer router. Modelled
//     as a terminal-to-terminal spanning construction — each new pin
//     connects by a maze route to the nearest already-connected *terminal*
//     rather than to the nearest point of the tree, which loses most
//     implicit Steiner sharing and reproduces its cost gap.
//   - Liu14 ([16]): geometric-reduction router. Modelled as the full
//     maze-router-based Prim construction plus one path-assessed
//     retracing pass.
//   - Lin18 ([14]): the strongest comparator, "maze routing with bounded
//     exploration and path-assessed retracing". Modelled as bounded-window
//     maze-Prim construction plus retracing passes until convergence.
//
// The relative quality ordering (Lin08 worst, Liu14 close to Lin18,
// Lin18 best) and the runtime growth of Lin18 with layout size are the
// properties Tables 2-4 depend on.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"oarsmt/internal/errs"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/route"
)

// Algorithm identifies a baseline router.
type Algorithm int

const (
	// Lin08 models reference [12] (Lin et al., TCAD 2008).
	Lin08 Algorithm = iota
	// Liu14 models reference [16] (Liu et al., TCAD 2014).
	Liu14
	// Lin18 models reference [14] (Lin et al., TODAES 2018).
	Lin18
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Lin08:
		return "Lin08[12]"
	case Liu14:
		return "Liu14[16]"
	case Lin18:
		return "Lin18[14]"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Router is a configured baseline router.
type Router struct {
	Alg Algorithm
	// RetracePasses bounds the refinement passes (Lin18 only; Liu14 always
	// uses one pass, Lin08 none).
	RetracePasses int
	// BoundMargin is the grid-space inflation of the bounded search window
	// used by Lin18's construction (windowedPrim).
	BoundMargin int
}

// New returns a baseline router with the defaults used in the paper's
// comparison harness.
func New(alg Algorithm) *Router {
	return &Router{Alg: alg, RetracePasses: 4, BoundMargin: 8}
}

// Result is a routed baseline tree with its wall-clock runtime.
type Result struct {
	Tree    *route.Tree
	Elapsed time.Duration
	// RetraceImproved counts retracing passes that found an improvement.
	RetraceImproved int
}

// Route routes the instance with the configured algorithm.
func (b *Router) Route(in *layout.Instance) (*Result, error) {
	start := time.Now()
	r := route.NewRouter(in.Graph)
	var (
		tree     *route.Tree
		err      error
		improved int
	)
	switch b.Alg {
	case Lin08:
		tree, err = terminalSpanningTree(r, in.Pins)
	case Liu14:
		tree, err = r.OARMST(in.Pins)
		if err == nil {
			tree, improved = r.Retrace(tree, in.Pins, 1)
		}
	case Lin18:
		tree, err = windowedPrim(r, in.Pins, b.BoundMargin)
		if err == nil {
			passes := b.RetracePasses
			if passes < 1 {
				passes = 1
			}
			tree, improved = r.Retrace(tree, in.Pins, passes)
		}
	default:
		return nil, fmt.Errorf("%w: baseline: unknown algorithm %v", errs.ErrInvalidConfig, b.Alg)
	}
	if err != nil {
		return nil, fmt.Errorf("baseline %v: %w", b.Alg, err)
	}
	return &Result{Tree: tree, Elapsed: time.Since(start), RetraceImproved: improved}, nil
}

// terminalSpanningTree connects each new terminal to the nearest
// already-connected terminal (not the nearest tree point), emulating the
// spanning-graph style of [12]. Overlapping route segments still merge
// (the tree deduplicates edges), but branching is never created
// deliberately.
func terminalSpanningTree(r *route.Router, terminals []grid.VertexID) (*route.Tree, error) {
	g := r.Graph()
	terms, err := checkedTerminals(g, terminals)
	if err != nil {
		return nil, err
	}
	tree := route.NewTreeAt(terms[0])
	connected := []grid.VertexID{terms[0]}
	remaining := remainingSet(terms[1:])
	for len(remaining) > 0 {
		path, _, ok := r.ShortestToTarget(connected, remaining.has)
		if !ok {
			return nil, remaining.unreachable(g)
		}
		tree.AddPath(g, path)
		reached := path[0]
		delete(remaining, reached)
		connected = append(connected, reached)
	}
	return tree, nil
}

// windowedPrim is the bounded-exploration construction of [14]: the
// maze-router-based Prim of route.Router.OARMST, except that each step
// searches only a window spanning the current tree and the nearest
// remaining terminal, inflated by margin, and falls back to an unbounded
// search when the window turns out too tight. This trades a little tree
// quality for a large speedup on big layouts.
func windowedPrim(r *route.Router, terminals []grid.VertexID, margin int) (*route.Tree, error) {
	g := r.Graph()
	terms, err := checkedTerminals(g, terminals)
	if err != nil {
		return nil, err
	}
	tree := route.NewTreeAt(terms[0])
	remaining := remainingSet(terms[1:])
	sources := []grid.VertexID{terms[0]}
	for len(remaining) > 0 {
		treeBounds := route.BoundsOf(g, sources)
		dmin := -1
		for v := range remaining { // min-reduction: visit order is irrelevant
			if d := windowDistance(treeBounds, g.CoordOf(v)); dmin < 0 || d < dmin {
				dmin = d
			}
		}
		window := treeBounds.Inflate(dmin+margin, g)
		r.Bounds = &window
		path, _, ok := r.ShortestToTarget(sources, remaining.has)
		r.Bounds = nil
		if !ok && r.Err() == nil {
			path, _, ok = r.ShortestToTarget(sources, remaining.has)
		}
		if !ok {
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("baseline: windowed Prim: %w", err)
			}
			return nil, remaining.unreachable(g)
		}
		sources = append(sources, tree.AddPath(g, path)...)
		delete(remaining, path[0]) // path[0] is the reached terminal
	}
	return tree, nil
}

// windowDistance is the grid-space distance from a coordinate to a bounds
// window over the H and V axes (0 when inside).
func windowDistance(b route.Bounds, c grid.Coord) int {
	d := 0
	if c.H < b.HLo {
		d = max(d, b.HLo-c.H)
	}
	if c.H > b.HHi {
		d = max(d, c.H-b.HHi)
	}
	if c.V < b.VLo {
		d = max(d, b.VLo-c.V)
	}
	if c.V > b.VHi {
		d = max(d, c.V-b.VHi)
	}
	return d
}

// checkedTerminals deduplicates and sorts the terminals and rejects an
// empty or blocked set.
func checkedTerminals(g *grid.Graph, terminals []grid.VertexID) ([]grid.VertexID, error) {
	terms := sortedUniqueIDs(terminals)
	if len(terms) == 0 {
		return nil, fmt.Errorf("%w: baseline: no terminals", errs.ErrInvalidLayout)
	}
	for _, t := range terms {
		if g.Blocked(t) {
			return nil, fmt.Errorf("%w: baseline: terminal %v blocked", errs.ErrInvalidLayout, g.CoordOf(t))
		}
	}
	return terms, nil
}

// terminalSet holds the terminals a construction has yet to connect.
type terminalSet map[grid.VertexID]struct{}

func remainingSet(terms []grid.VertexID) terminalSet {
	s := make(terminalSet, len(terms))
	for _, t := range terms {
		s[t] = struct{}{}
	}
	return s
}

func (s terminalSet) has(v grid.VertexID) bool {
	_, ok := s[v]
	return ok
}

// unreachable reports the smallest terminal left, a deterministic
// representative of the set no search could reach.
func (s terminalSet) unreachable(g *grid.Graph) error {
	var worst grid.VertexID = -1
	for v := range s {
		if worst == -1 || v < worst {
			worst = v
		}
	}
	return &route.ErrUnreachable{Terminal: worst, Coord: g.CoordOf(worst)}
}

func sortedUniqueIDs(vs []grid.VertexID) []grid.VertexID {
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
