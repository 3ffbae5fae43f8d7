// Package core assembles the paper's RL router end to end (Fig 2): encode
// the layout as a 3-D Hanan grid graph, run the trained Steiner-point
// selector once to pick the top n-2 candidate Steiner points, then build
// the final tree with the OARMST router (maze-router-based Prim's
// construction with redundant-point removal, following [14]).
//
// The package also provides the sequential inference mode used by the
// AlphaGo-like and PPO baseline routers of §4.2 — which re-runs the
// network after every selected point — and the ST-to-MST evaluation metric
// of Fig 11/12.
//
// The canonical entry point is the context-first Router.Route(ctx, in,
// ...Option); per-call behaviour (deadline, worker count, inference mode,
// observability sinks) is configured with functional options rather than
// by mutating the Router.
package core

import (
	"context"
	"fmt"
	"time"

	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/obs"
	"oarsmt/internal/parallel"
	"oarsmt/internal/route"
	"oarsmt/internal/selector"
)

// What the selector's points buy, process-wide: the points proposed to
// Construct, and those the retraced Steiner tree keeps as branch points
// (the guard may still reject that tree; see core.guard_rejections).
var (
	mSteinerProposed = obs.Default.Counter("core.steiner_proposed")
	mSteinerKept     = obs.Default.Counter("core.steiner_kept")
)

// InferenceMode selects how the selector proposes Steiner points.
type InferenceMode int

const (
	// OneShot runs a single network inference and takes the top n-2
	// probabilities — the paper's router.
	OneShot InferenceMode = iota
	// Sequential re-runs the network after each selected point, feeding
	// selected points back as pins — the mode of the AlphaGo-like and PPO
	// baselines, used for the inference-speedup comparison of §4.2.
	Sequential
)

// String implements fmt.Stringer.
func (m InferenceMode) String() string {
	switch m {
	case OneShot:
		return "one-shot"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("InferenceMode(%d)", int(m))
	}
}

// Router is the trained ML-OARSMT RL router.
type Router struct {
	Selector *selector.Selector
	Mode     InferenceMode
	// GuardedAcceptance, when true, also compares against the plain
	// OARMST over the pins alone and returns whichever tree is cheaper.
	// This engineering guard (ablated in the benchmarks) bounds the
	// router's regret against its own tree builder. It costs one extra
	// OARMST construction only when the Steiner tree keeps a learned
	// point; when it keeps none, that tree already is the plain one.
	GuardedAcceptance bool
	// RetracePasses applies path-assessed retracing to the constructed
	// trees: the paper's OARMST step "follows the same algorithm in [14]"
	// (§3.1), whose methodology includes retracing. One pass keeps the
	// router fast; the [14] baseline itself retraces to convergence.
	RetracePasses int
}

// NewRouter returns a one-shot router with guarded acceptance and a single
// retracing pass, the configuration used in the experiment harness.
func NewRouter(sel *selector.Selector) *Router {
	return &Router{Selector: sel, Mode: OneShot, GuardedAcceptance: true, RetracePasses: 1}
}

// Option configures one Route call without mutating the Router, so a
// shared Router stays safe for concurrent use.
type Option func(*callConfig)

type callConfig struct {
	timeout    time.Duration
	workers    int
	hasWorkers bool
	mode       InferenceMode
	hasMode    bool
	observer   *obs.Observer
}

// WithTimeout derives a deadline for this call: the context handed to the
// maze-router searches is cancelled after d. Zero or negative d is a
// no-op.
func WithTimeout(d time.Duration) Option {
	return func(c *callConfig) { c.timeout = d }
}

// WithWorkers sets the worker-pool size before routing. The pool is
// process-wide (see internal/parallel), so the setting outlives the call
// and affects concurrent routes; it is a convenience for single-tenant
// binaries, not a per-call isolation mechanism.
func WithWorkers(n int) Option {
	return func(c *callConfig) { c.workers, c.hasWorkers = n, true }
}

// WithInferenceMode overrides the Router's inference mode for this call
// only.
func WithInferenceMode(m InferenceMode) Option {
	return func(c *callConfig) { c.mode, c.hasMode = m, true }
}

// WithObserver attaches observability sinks (span trace and/or metrics
// registry) to the call's context. Tracing never alters routing output;
// see the obs package's determinism contract.
func WithObserver(o *obs.Observer) Option {
	return func(c *callConfig) { c.observer = o }
}

// Result is the outcome of routing one layout.
type Result struct {
	Tree *route.Tree
	// SteinerPoints are the irredundant Steiner points kept in the final
	// tree (empty when the guard rejected the Steiner proposal).
	SteinerPoints []grid.VertexID
	// Proposed is the number of Steiner points the selector proposed.
	Proposed int
	// Inferences is the number of network inferences performed.
	Inferences int
	// SelectTime is the Steiner-point-selection time (the "Spoint select"
	// column of Table 3); TotalTime additionally includes the OARMST
	// construction.
	SelectTime time.Duration
	TotalTime  time.Duration
	// PlainCost is the cost of the retraced no-Steiner-point OARMST when
	// the guard is on (0 otherwise): built for the comparison when the
	// Steiner tree keeps a point, and that tree's own cost when it keeps
	// none. UsedSteiner tells whether the final tree is the
	// Steiner-guided one.
	PlainCost   float64
	UsedSteiner bool
	// Degraded reports that the selector inference failed and the tree is
	// the plain OARMST fallback: still a valid route, but without the
	// learned Steiner points. Callers that cache results must not cache
	// degraded ones.
	Degraded bool
}

// Route routes the instance under a cancellation context: the deadline is
// threaded into every maze-router search, so long constructions on large
// layouts abort promptly once the context is cancelled. The network
// inference itself is not interruptible mid-forward; cancellation is
// checked before it starts and throughout tree construction.
//
// Deadline errors match both oarsmt.ErrTimeout and
// context.DeadlineExceeded under errors.Is; an unreachable terminal
// matches oarsmt.ErrNoPath.
func (r *Router) Route(ctx context.Context, in *layout.Instance, opts ...Option) (*Result, error) {
	var cfg callConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	if cfg.hasWorkers {
		parallel.SetWorkers(cfg.workers)
	}
	if cfg.observer != nil {
		ctx = obs.With(ctx, cfg.observer)
	}
	rr := r
	if cfg.hasMode && cfg.mode != r.Mode {
		clone := *r
		clone.Mode = cfg.mode
		rr = &clone
	}

	ctx, end := obs.Span(ctx, "core.route")
	defer end()
	if err := ctx.Err(); err != nil {
		return nil, errs.Classify(fmt.Errorf("core: route %q: %w", in.Name, err))
	}
	t := obs.StartTimer()
	_, endSel := obs.Span(ctx, "core.selector")
	sps, inferences, perr := rr.TryPropose(in)
	endSel()
	if perr != nil {
		// Selector inference failed: degrade to the plain OARMST rather
		// than failing the route. The result is still valid, just without
		// the learned Steiner points, and is flagged Degraded.
		return rr.ConstructPlain(ctx, in, t.Elapsed())
	}
	return rr.Construct(ctx, in, sps, inferences, t.Elapsed())
}

// Propose runs the selection phase alone: the selector's Steiner-point
// proposal for the instance and the number of network inferences spent.
// Splitting selection from construction lets a batch scheduler share one
// selector across many layouts while fanning construction out in parallel;
// Construct completes the route.
func (r *Router) Propose(in *layout.Instance) ([]grid.VertexID, int) {
	return r.propose(in)
}

// TryPropose is Propose with failure reporting: it honours the
// `selector.infer` fault-injection point, so serving and routing layers
// can exercise (and recover from) inference failures deterministically.
// An Error-mode fault returns an error matching errs.ErrTransient; a
// Panic-mode fault propagates, to be contained at the service boundary.
// Callers degrade to ConstructPlain when TryPropose fails.
func (r *Router) TryPropose(in *layout.Instance) ([]grid.VertexID, int, error) {
	if fault.Enabled() {
		if err := fault.Inject("selector.infer"); err != nil {
			return nil, 0, fmt.Errorf("core: selector inference: %w", err)
		}
	}
	sps, inferences := r.propose(in)
	return sps, inferences, nil
}

// ConstructPlain is the degraded second phase: it builds the plain OARMST
// (no Steiner points) with the router's usual retracing, flags the result
// Degraded, and counts it on core.fallbacks. It exists so callers whose
// selector inference failed can still answer with a valid route instead
// of an error — the serving layer uses it when retries are exhausted.
func (r *Router) ConstructPlain(ctx context.Context, in *layout.Instance, selectTime time.Duration) (*Result, error) {
	t := obs.StartTimer()
	router := route.NewRouter(in.Graph)
	router.SetContext(ctx)
	// One span covers the plain build and its retracing.
	_, endST := obs.Span(ctx, "core.oarmst")
	tree, err := r.plainTree(router, in.Pins)
	endST()
	if err != nil {
		return nil, errs.Classify(fmt.Errorf("core: route %q: %w", in.Name, err))
	}
	res := &Result{
		Tree:       tree,
		SelectTime: selectTime,
		TotalTime:  selectTime + t.Elapsed(),
		PlainCost:  tree.Cost,
		Degraded:   true,
	}
	m := obs.MetricsFrom(ctx)
	m.Counter("core.routes").Inc()
	m.Counter("core.fallbacks").Inc()
	m.Histogram("core.route_latency").Observe(res.TotalTime)
	return res, nil
}

// Construct builds the final tree from a Steiner-point proposal — the
// second phase of Route, honouring the same cancellation semantics.
// inferences and selectTime describe the selection phase that produced sps
// and are copied into the Result for reporting.
func (r *Router) Construct(ctx context.Context, in *layout.Instance, sps []grid.VertexID, inferences int, selectTime time.Duration) (*Result, error) {
	t := obs.StartTimer()
	res := &Result{}
	res.Proposed = len(sps)
	res.Inferences = inferences
	res.SelectTime = selectTime

	router := route.NewRouter(in.Graph)
	router.SetContext(ctx)
	// Unlike the Lin18 baseline, construction here is unbounded: the
	// router's value proposition is tree quality, and bounded windows
	// (the baseline package's windowed Prim) measurably cede exactly the
	// cost advantage Table 2 reports.
	_, endST := obs.Span(ctx, "core.oarmst")
	st, err := router.SteinerTree(in.Pins, sps)
	endST()
	if err != nil {
		return nil, errs.Classify(fmt.Errorf("core: route %q: %w", in.Name, err))
	}
	tree := st.Tree
	kept := st.Kept
	if r.RetracePasses > 0 {
		_, endRT := obs.Span(ctx, "core.retrace")
		tree, _ = router.Retrace(tree, in.Pins, r.RetracePasses)
		endRT()
		// Retracing can demote a branch point; keep the report honest.
		deg := tree.Degrees()
		filtered := kept[:0]
		for _, sp := range kept {
			if deg[sp] >= 3 {
				filtered = append(filtered, sp)
			}
		}
		kept = filtered
	}
	res.Tree = tree
	res.SteinerPoints = kept
	res.UsedSteiner = true

	mSteinerProposed.Add(int64(len(sps)))
	mSteinerKept.Add(int64(len(kept)))

	switch {
	case !r.GuardedAcceptance:
	case len(st.Kept) == 0:
		// SteinerTree kept no point, so its last build was
		// OARMST(dedupSorted(pins)) — exactly the guard's OARMST(in.Pins),
		// which dedup-sorts its terminals itself — and the tree in hand is
		// that build under the guard's retrace: the plain tree.
		res.PlainCost = tree.Cost
	default:
		_, endG := obs.Span(ctx, "core.guard")
		plain, err := r.plainTree(router, in.Pins)
		endG()
		if err != nil {
			return nil, errs.Classify(fmt.Errorf("core: route %q: %w", in.Name, err))
		}
		res.PlainCost = plain.Cost
		if plain.Cost < res.Tree.Cost {
			res.Tree = plain
			res.SteinerPoints = nil
			res.UsedSteiner = false
		}
	}
	res.TotalTime = selectTime + t.Elapsed()

	m := obs.MetricsFrom(ctx)
	m.Counter("core.routes").Inc()
	m.Counter("core.inferences").Add(int64(inferences))
	if !res.UsedSteiner {
		m.Counter("core.guard_rejections").Inc()
	}
	m.Histogram("core.route_latency").Observe(res.TotalTime)
	return res, nil
}

// plainTree builds the plain OARMST over the pins and retraces it: the
// tree ConstructPlain answers with and the guard compares against.
func (r *Router) plainTree(router *route.Router, pins []grid.VertexID) (*route.Tree, error) {
	tree, err := router.OARMST(pins)
	if err != nil || r.RetracePasses <= 0 {
		return tree, err
	}
	tree, _ = router.Retrace(tree, pins, r.RetracePasses)
	return tree, nil
}

// propose returns the selector's Steiner-point proposal for the instance.
func (r *Router) propose(in *layout.Instance) ([]grid.VertexID, int) {
	k := in.MaxSteinerPoints()
	if k == 0 || r.Selector == nil {
		return nil, 0
	}
	switch r.Mode {
	case Sequential:
		return r.proposeSequential(in, k)
	default:
		return r.Selector.SelectSteinerPoints(in.Graph, in.Pins), 1
	}
}

// proposeSequential picks one point at a time, re-running the network with
// the already selected points treated as pins (n-2 inferences).
func (r *Router) proposeSequential(in *layout.Instance, k int) ([]grid.VertexID, int) {
	pins := append([]grid.VertexID(nil), in.Pins...)
	var sps []grid.VertexID
	inferences := 0
	for i := 0; i < k; i++ {
		fsp := r.Selector.FSP(in.Graph, pins)
		inferences++
		top := selector.TopK(fsp, selector.ValidMask(in.Graph, pins), 1)
		if len(top) == 0 {
			break
		}
		sps = append(sps, top[0])
		pins = append(pins, top[0])
	}
	return sps, inferences
}

// PlainOARMST routes the instance without any Steiner points: the
// baseline spanning tree of the ST-to-MST metric.
func PlainOARMST(ctx context.Context, in *layout.Instance) (*route.Tree, error) {
	_, end := obs.Span(ctx, "core.oarmst")
	defer end()
	r := route.NewRouter(in.Graph)
	r.SetContext(ctx)
	tree, err := r.OARMST(in.Pins)
	if err != nil {
		return nil, errs.Classify(err)
	}
	return tree, nil
}

// STtoMSTRatio evaluates the router on the instance and returns the
// ST-to-MST ratio of §4.2: the routed Steiner tree cost over the plain
// OARMST cost. Lower is better; 1.0 means the Steiner points bought
// nothing.
func (r *Router) STtoMSTRatio(ctx context.Context, in *layout.Instance) (float64, error) {
	mst, err := PlainOARMST(ctx, in)
	if err != nil {
		return 0, err
	}
	if mst.Cost <= 0 {
		return 0, fmt.Errorf("core: degenerate MST cost %v on %q", mst.Cost, in.Name)
	}
	res, err := r.Route(ctx, in)
	if err != nil {
		return 0, err
	}
	return res.Tree.Cost / mst.Cost, nil
}
