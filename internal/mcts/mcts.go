// Package mcts implements the paper's primary contribution: the
// combinatorial Monte-Carlo tree search (§3.4–3.5) that trains the
// Steiner-point selector to emit the entire final combination of Steiner
// points in one inference.
//
// The search differs from conventional (AlphaGo-like) MCTS in three ways:
//
//  1. Actions are constrained by a lexicographic selection priority — a
//     Steiner point may only be placed at a vertex whose (h, v, m)
//     coordinate is larger than the previously placed one — so every node
//     of the search tree represents a unique *combination* of points.
//  2. The actor converts the selector's independent per-vertex final
//     selected probabilities fsp(v) into a sequential policy with
//     eq. (1): p'(u) = fsp(u) · Π_{w<v<u} (1 − fsp(v)), normalised over
//     valid u.
//  3. The training label is extracted from the entire search tree at the
//     end of the episode with eq. (3): L_fsp(v) = n_sel(v) / n_opp(v),
//     rather than per-move visit counts.
package mcts

import (
	"context"
	"fmt"
	"math"
	"sort"

	"oarsmt/internal/errs"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/obs"
	"oarsmt/internal/parallel"
	"oarsmt/internal/route"
	"oarsmt/internal/selector"
)

// BaseVolume is the layout volume (16x16x4) at which Config.Iterations is
// interpreted literally; larger layouts scale the iteration budget
// proportionally (paper §3.4).
const BaseVolume = 16 * 16 * 4

// Config parameterises a combinatorial MCTS episode.
type Config struct {
	// Iterations is α, the number of search iterations per executed
	// action, specified for a BaseVolume layout (paper: 2000).
	Iterations int
	// ScaleIterations scales α with layout volume relative to BaseVolume.
	ScaleIterations bool
	// UseCritic selects the simulation value source: true uses the
	// selector-derived critic of Fig 5; false (the curriculum mode of
	// §3.6's first stages) uses the directly computed routing cost of the
	// leaf state.
	UseCritic bool
	// CPuct scales the exploration term U(s,a); the paper's eq. (2) uses
	// 1.0.
	CPuct float64
	// MaxNoChange is the number of consecutive cost-preserving actions
	// after which a state is terminal (paper: 3).
	MaxNoChange int
}

// DefaultConfig returns the paper's settings with a CPU-scale iteration
// budget.
func DefaultConfig() Config {
	return Config{
		Iterations:      128,
		ScaleIterations: true,
		UseCritic:       true,
		CPuct:           1.0,
		MaxNoChange:     3,
	}
}

func (c Config) withDefaults() Config {
	if c.Iterations <= 0 {
		c.Iterations = 128
	}
	if c.CPuct == 0 {
		c.CPuct = 1.0
	}
	if c.MaxNoChange <= 0 {
		c.MaxNoChange = 3
	}
	return c
}

// Sample is one training sample produced by an episode: the initial layout
// and the per-vertex label L_fsp (eq. 3), indexed by VertexID.
type Sample struct {
	Instance *layout.Instance
	Label    []float64
}

// Result reports everything a caller may want from one episode.
type Result struct {
	Sample Sample
	// Executed is the sequence of Steiner points actually committed, in
	// execution (= priority) order.
	Executed []grid.VertexID
	// RootCost is rc_s0, the routing cost with no Steiner points.
	RootCost float64
	// FinalCost is the routing cost of the terminal executed state.
	FinalCost float64
	// Iterations is the total number of search iterations performed.
	Iterations int
	// NodesExpanded counts expansion steps.
	NodesExpanded int
	// RootActions holds the initial root's most-visited actions with
	// their UCT statistics, for introspection and debugging (sorted by
	// descending visit count, capped at 16 entries).
	RootActions []ActionStat
}

// ActionStat is one root action's search statistics (paper §3.4's
// P/N/W/Q tuple).
type ActionStat struct {
	Action grid.VertexID
	Prior  float64
	Visits int
	Q      float64
}

// edge is one (state, action) pair of the search tree with the UCT
// statistics of paper §3.4.
type edge struct {
	action grid.VertexID
	p      float64 // prior probability P(s,a)
	n      int     // visit count N(s,a)
	w      float64 // total value W(s,a)
	q      float64 // average value Q(s,a)
	child  *node
}

// node is one state: the set of Steiner points selected so far, stored as
// the ascending action sequence (ascending == priority order, so the
// sequence is canonical for the combination).
type node struct {
	parent *node
	// last is the action that created this node (-1 at the root).
	last grid.VertexID
	// depth == number of selected Steiner points.
	depth int

	evaluated bool // cost/terminal computed
	// costDone marks a routing cost prefetched by the parallel leaf
	// evaluation; terminal flags are still derived lazily.
	costDone bool
	cost     float64
	noChange int
	terminal bool

	expanded bool
	children []edge
}

// Searcher runs combinatorial MCTS episodes over one layout.
type Searcher struct {
	cfg    Config
	sel    *selector.Selector
	in     *layout.Instance
	router *route.Router

	nSel []int
	nOpp []int

	// shardRouters are per-worker routers for the parallel leaf
	// evaluation; the embedded router stays reserved for the search
	// goroutine. Grown on demand before each parallel section.
	shardRouters []*route.Router

	root     *node
	rootCost float64
	// state holds the Steiner points of the current root, ascending.
	state []grid.VertexID

	iterations    int
	nodesExpanded int

	// sw aggregates per-stage timings across iterations when the episode
	// runs under an active trace; nil (the common case) makes every lap a
	// no-op. Timing is telemetry only — it never feeds the search.
	sw *obs.Stopwatch
}

// NewSearcher prepares an episode on the instance. The instance must have
// at least 3 pins (a 2-pin layout needs no Steiner points).
func NewSearcher(sel *selector.Selector, in *layout.Instance, cfg Config) (*Searcher, error) {
	if in.NumPins() < 3 {
		return nil, fmt.Errorf("%w: mcts: layout %q has %d pins; need >= 3", errs.ErrInvalidLayout, in.Name, in.NumPins())
	}
	cfg = cfg.withDefaults()
	s := &Searcher{
		cfg:    cfg,
		sel:    sel,
		in:     in,
		router: route.NewRouter(in.Graph),
		nSel:   make([]int, in.Graph.NumVertices()),
		nOpp:   make([]int, in.Graph.NumVertices()),
	}
	tree, err := s.router.OARMST(in.Pins)
	if err != nil {
		return nil, fmt.Errorf("mcts: root state unroutable: %w", err)
	}
	s.rootCost = tree.Cost
	s.root = &node{last: -1, depth: 0, evaluated: true, cost: tree.Cost}
	return s, nil
}

// alpha returns the per-move iteration budget for this layout.
func (s *Searcher) alpha() int {
	a := s.cfg.Iterations
	if s.cfg.ScaleIterations {
		vol := s.in.Graph.NumVertices()
		scaled := int(math.Round(float64(a) * float64(vol) / float64(BaseVolume)))
		if scaled > a {
			a = scaled
		}
	}
	if a < 1 {
		a = 1
	}
	return a
}

// Run plays one full episode: α iterations per executed action until the
// root becomes terminal, then extracts the training sample.
func (s *Searcher) Run() (*Result, error) { return s.RunCtx(context.Background()) }

// RunCtx is Run with cancellation: the context is polled once per search
// iteration (each iteration routes a handful of OARMSTs, so cancellation
// lands promptly), and a cancelled episode returns the context's error
// instead of a partial sample.
func (s *Searcher) RunCtx(ctx context.Context) (*Result, error) {
	ctx, end := obs.Span(ctx, "mcts.episode")
	defer end()
	if obs.Enabled(ctx) {
		s.sw = obs.NewStopwatch()
	}
	var executed []grid.VertexID
	var rootActions []ActionStat
	alpha := s.alpha()
	maxDepth := s.in.NumPins() - 2

	for !s.rootTerminal() {
		for i := 0; i < alpha; i++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("mcts: episode on %q: %w", s.in.Name, err)
			}
			s.iterate(maxDepth)
		}
		if rootActions == nil {
			rootActions = s.rootActionStats(16)
		}
		best := s.bestRootAction()
		if best < 0 {
			break // no explorable action: treat root as terminal
		}
		e := &s.root.children[best]
		if e.child == nil {
			e.child = s.makeChild(s.root, e.action)
		}
		s.root = e.child
		s.state = append(s.state, e.action)
		executed = append(executed, e.action)
		s.ensureEvaluated(s.root)
	}

	s.sw.Emit(ctx)
	m := obs.MetricsFrom(ctx)
	m.Counter("mcts.episodes").Inc()
	m.Counter("mcts.iterations").Add(int64(s.iterations))
	m.Counter("mcts.nodes_expanded").Add(int64(s.nodesExpanded))

	label := make([]float64, len(s.nSel))
	for i := range label {
		if s.nOpp[i] > 0 {
			label[i] = float64(s.nSel[i]) / float64(s.nOpp[i])
		}
	}
	return &Result{
		Sample:        Sample{Instance: s.in, Label: label},
		Executed:      executed,
		RootCost:      s.rootCost,
		FinalCost:     s.root.cost,
		Iterations:    s.iterations,
		NodesExpanded: s.nodesExpanded,
		RootActions:   rootActions,
	}, nil
}

// rootActionStats snapshots the current root's edges sorted by descending
// visit count (ties on smaller action), capped at limit entries.
func (s *Searcher) rootActionStats(limit int) []ActionStat {
	out := make([]ActionStat, 0, len(s.root.children))
	for i := range s.root.children {
		e := &s.root.children[i]
		out = append(out, ActionStat{Action: e.action, Prior: e.p, Visits: e.n, Q: e.q})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Visits != out[j].Visits {
			return out[i].Visits > out[j].Visits
		}
		return out[i].Action < out[j].Action
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

func (s *Searcher) rootTerminal() bool {
	s.ensureEvaluated(s.root)
	if s.root.terminal {
		return true
	}
	if !s.root.expanded {
		s.expand(s.root)
	}
	return s.root.terminal || len(s.root.children) == 0
}

// iterate performs one selection→expansion→simulation→backpropagation
// pass (paper Fig 6).
func (s *Searcher) iterate(maxDepth int) {
	s.iterations++
	s.sw.Reset()
	cur := s.root
	// statePins tracks the Steiner points along the traversal path.
	path := make([]*edge, 0, 8)
	pathPins := append([]grid.VertexID(nil), s.state...)

	for {
		s.ensureEvaluatedWithPins(cur, pathPins)
		if cur.terminal {
			break
		}
		if !cur.expanded {
			s.expandWithPins(cur, pathPins)
			if len(cur.children) == 0 {
				cur.terminal = true
			}
			break
		}
		if len(cur.children) == 0 {
			cur.terminal = true
			break
		}
		ei := s.selectChild(cur)
		e := &cur.children[ei]
		// Label bookkeeping (paper Fig 7): every candidate at this node
		// had an opportunity; the chosen one is selected.
		for i := range cur.children {
			s.nOpp[cur.children[i].action]++
		}
		s.nSel[e.action]++
		if e.child == nil {
			e.child = s.makeChild(cur, e.action)
		}
		path = append(path, e)
		pathPins = append(pathPins, e.action)
		cur = e.child
	}

	// Simulation: value of the leaf.
	s.ensureEvaluatedWithPins(cur, pathPins)
	s.sw.Lap("mcts.select")
	v := s.leafValue(cur, pathPins, maxDepth)
	s.sw.Lap("mcts.leaf_eval")

	// Backpropagation.
	for _, e := range path {
		e.n++
		e.w += v
		e.q = e.w / float64(e.n)
	}
	s.sw.Lap("mcts.backprop")
}

// selectChild returns the index of the child edge maximising Q + U
// (eq. 2), ties broken on smaller action ID for determinism.
func (s *Searcher) selectChild(nd *node) int {
	sumN := 0
	for i := range nd.children {
		sumN += nd.children[i].n
	}
	sqrtSum := math.Sqrt(float64(sumN))
	best, bestScore := -1, math.Inf(-1)
	for i := range nd.children {
		e := &nd.children[i]
		u := s.cfg.CPuct * e.p * sqrtSum / float64(1+e.n)
		score := e.q + u
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

func (s *Searcher) makeChild(parent *node, action grid.VertexID) *node {
	return &node{parent: parent, last: action, depth: parent.depth + 1}
}

// ensureEvaluated computes the routing cost and terminal flags of a node
// reachable from the current root along s.state.
func (s *Searcher) ensureEvaluated(nd *node) {
	s.ensureEvaluatedWithPins(nd, s.state)
}

// ensureEvaluatedWithPins computes cost and terminal flags; pins is the
// Steiner-point set of the node (ascending).
func (s *Searcher) ensureEvaluatedWithPins(nd *node, sps []grid.VertexID) {
	if nd.evaluated {
		return
	}
	nd.evaluated = true
	if !nd.costDone {
		s.sw.Lap("mcts.select")
		nd.cost = s.stateCost(sps)
		nd.costDone = true
		s.sw.Lap("mcts.leaf_eval")
	}
	maxDepth := s.in.NumPins() - 2
	if nd.depth >= maxDepth {
		nd.terminal = true
	}
	if nd.parent != nil && nd.parent.evaluated {
		const eps = 1e-9
		switch {
		case nd.cost > nd.parent.cost+eps:
			// Criterion (2): the action increased the routing cost.
			nd.terminal = true
		case math.Abs(nd.cost-nd.parent.cost) <= eps:
			nd.noChange = nd.parent.noChange + 1
			if nd.noChange >= s.cfg.MaxNoChange {
				// Criterion (3): unchanged for MaxNoChange actions.
				nd.terminal = true
			}
		default:
			nd.noChange = 0
		}
	}
}

// stateCost is the routing cost of a state: the OARMST over the pins plus
// the selected Steiner points, all treated as terminals (paper §3.4).
func (s *Searcher) stateCost(sps []grid.VertexID) float64 {
	terms := make([]grid.VertexID, 0, len(s.in.Pins)+len(sps))
	terms = append(terms, s.in.Pins...)
	terms = append(terms, sps...)
	tree, err := s.router.OARMST(terms)
	if err != nil {
		// Steiner points are chosen from free vertices of a routable
		// layout, so this cannot happen; fail loudly if it does.
		panic(fmt.Sprintf("mcts: state cost: %v", err))
	}
	return tree.Cost
}

// expand creates the children of the current root.
func (s *Searcher) expand(nd *node) { s.expandWithPins(nd, s.state) }

// expandWithPins creates one child per valid action with prior
// probabilities from the actor policy (eq. 1).
func (s *Searcher) expandWithPins(nd *node, sps []grid.VertexID) {
	if nd.expanded {
		return
	}
	nd.expanded = true
	s.nodesExpanded++

	s.sw.Lap("mcts.select")
	policy := s.ActorPolicy(sps, nd.last)
	for id, p := range policy {
		if p > 0 {
			nd.children = append(nd.children, edge{action: grid.VertexID(id), p: p})
		}
	}
	s.prefetchChildCosts(nd, sps)
	s.sw.Lap("mcts.expand")
}

// prefetchChildCosts evaluates the routing costs of the most promising
// children of a freshly expanded node concurrently, one worker-private
// router per shard. PUCT visits high-prior children first, so prefetching
// the top priors overlaps the OARMST evaluations the serial search would
// perform one iteration at a time. A state's cost is a pure function of
// its pin set, so prefetched values are exactly the values lazy evaluation
// would compute: the search trajectory — and therefore the selected
// Steiner set and the training label — is bit-identical at every worker
// count. Terminal flags still derive lazily from the parent chain.
func (s *Searcher) prefetchChildCosts(nd *node, sps []grid.VertexID) {
	w := parallel.Workers()
	if w <= 1 || len(nd.children) < 2 {
		return
	}
	k := 2 * w
	if k > len(nd.children) {
		k = len(nd.children)
	}
	// Top-k children by descending prior, ties on smaller action.
	order := make([]int, len(nd.children))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := &nd.children[order[a]], &nd.children[order[b]]
		if ea.p != eb.p {
			return ea.p > eb.p
		}
		return ea.action < eb.action
	})
	top := order[:k]

	for len(s.shardRouters) < w {
		s.shardRouters = append(s.shardRouters, route.NewRouter(s.in.Graph))
	}
	base := make([]grid.VertexID, 0, len(s.in.Pins)+len(sps)+1)
	base = append(base, s.in.Pins...)
	base = append(base, sps...)
	parallel.For(k, func(shard, lo, hi int) {
		r := s.shardRouters[shard]
		terms := make([]grid.VertexID, len(base), len(base)+1)
		copy(terms, base)
		for i := lo; i < hi; i++ {
			e := &nd.children[top[i]]
			tree, err := r.OARMST(append(terms, e.action))
			if err != nil {
				// Same impossibility as stateCost: candidates are free
				// vertices of a routable layout.
				panic(fmt.Sprintf("mcts: prefetch state cost: %v", err))
			}
			child := s.makeChild(nd, e.action)
			child.cost = tree.Cost
			child.costDone = true
			e.child = child
		}
	})
}

// ActorPolicy implements the actor of paper Fig 5 / eq. (1): one selector
// inference yields fsp(v); each valid vertex u with priority below w (the
// last selected point) gets weight fsp(u) · Π_{w<v<u, v valid} (1−fsp(v));
// the weights are normalised to a distribution. Exported for the
// experiment harness and tests; sps must be ascending.
func (s *Searcher) ActorPolicy(sps []grid.VertexID, last grid.VertexID) []float64 {
	g := s.in.Graph
	statePins := append(append([]grid.VertexID(nil), s.in.Pins...), sps...)
	fsp := s.sel.FSP(g, statePins)
	valid := selector.ValidMask(g, statePins)

	policy := make([]float64, g.NumVertices())
	prod := 1.0
	total := 0.0
	for id := int(last) + 1; id < g.NumVertices(); id++ {
		if !valid[id] {
			continue
		}
		p := float64(fsp[id] * prod)
		policy[id] = p
		total += p
		prod *= 1 - fsp[id]
	}
	if total <= 0 {
		// Degenerate fsp (all ~0 handled by normalisation; exact zeros
		// cannot happen through a sigmoid, but guard anyway).
		return policy
	}
	for id := range policy {
		policy[id] /= total
	}
	return policy
}

// leafValue implements the simulation step: v(s_l) = (rc_s0 − c(s_l)) /
// rc_s0 where c is the critic's predicted final cost (or the direct state
// cost for terminal leaves and in curriculum mode).
func (s *Searcher) leafValue(nd *node, sps []grid.VertexID, maxDepth int) float64 {
	c := nd.cost
	if s.cfg.UseCritic && !nd.terminal {
		c = s.CriticCost(sps, maxDepth-nd.depth)
	}
	if s.rootCost <= 0 {
		return 0
	}
	return (s.rootCost - c) / s.rootCost
}

// CriticCost implements the critic of paper Fig 5: complete the state with
// the remaining Steiner points chosen greedily from the selector's fsp,
// route the OARMST over everything, and return its cost. Exported for the
// experiment harness and tests.
func (s *Searcher) CriticCost(sps []grid.VertexID, remaining int) float64 {
	g := s.in.Graph
	statePins := append(append([]grid.VertexID(nil), s.in.Pins...), sps...)
	if remaining <= 0 {
		return s.stateCost(sps)
	}
	fsp := s.sel.FSP(g, statePins)
	top := selector.TopK(fsp, selector.ValidMask(g, statePins), remaining)
	all := append(append([]grid.VertexID(nil), sps...), top...)
	return s.stateCost(all)
}

// bestRootAction returns the index of the root child with the highest
// visit count (ties on smaller action), or -1 when the root has none.
func (s *Searcher) bestRootAction() int {
	best, bestN := -1, -1
	for i := range s.root.children {
		if s.root.children[i].n > bestN {
			best, bestN = i, s.root.children[i].n
		}
	}
	return best
}

// Search runs one full combinatorial MCTS episode on the instance and
// returns its result.
func Search(sel *selector.Selector, in *layout.Instance, cfg Config) (*Result, error) {
	return SearchCtx(context.Background(), sel, in, cfg)
}

// SearchCtx is Search with cancellation; see Searcher.RunCtx.
func SearchCtx(ctx context.Context, sel *selector.Selector, in *layout.Instance, cfg Config) (*Result, error) {
	s, err := NewSearcher(sel, in, cfg)
	if err != nil {
		return nil, err
	}
	return s.RunCtx(ctx)
}
