// Package serve is the embeddable routing service of the repository: a
// long-running front end that amortizes model load over the one-shot
// routing pipeline of internal/core.
//
// Results are memoized in one cache tier, an internal/store.Store keyed by
// the augmentation-normalized canonical layout hash, so any of the 16
// symmetric orientations of a layout hits the same record. A hit is served
// on the request's own goroutine. So is a miss: it is admitted against a
// bound on waiting requests (backpressure: beyond it ErrQueueFull, which
// the HTTP layer maps to 429 + Retry-After), waits for one of GOMAXPROCS
// route slots, re-checks the cache (a concurrent miss of the same layout,
// in any orientation, may have routed it meanwhile) and routes: one
// inference on the shared selector (whose inference is goroutine-safe),
// then the OARMST construction. The store is memory-only by default; with Config.StoreDir it
// also persists to segment files, so a restarted daemon starts warm. Every
// answer is replayed from a record through a Validate path, so a collision
// or corrupt record is a miss, never a wrong tree. Per-request deadlines
// travel as context.Context through internal/core and internal/route,
// interrupting even long Dijkstra expansions.
//
// The package is stdlib-only and embeddable; cmd/oarsmt-serve wraps it in
// an HTTP daemon.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oarsmt/internal/core"
	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/obs"
	"oarsmt/internal/route"
	"oarsmt/internal/selector"
	"oarsmt/internal/store"
	"oarsmt/wire"
)

// Sentinel errors of the service surface. All three are module-wide
// identities from internal/errs (re-exported at the root and coded by
// package wire), so errors.Is matches them across the HTTP boundary.
var (
	// ErrQueueFull is returned when QueueSize misses already wait;
	// clients should back off and retry (HTTP 429).
	ErrQueueFull = errs.ErrQueueFull
	// ErrClosed is returned once the service has begun draining.
	ErrClosed = errs.ErrClosed
	// ErrTooLarge is returned for layouts above Config.MaxVolume.
	ErrTooLarge = errs.ErrTooLarge
)

// Config parameterises a Service.
type Config struct {
	// Selector is the trained Steiner-point selector shared by every
	// request. Required. Every route slot infers through this one selector
	// concurrently, so it must not be trained while the service runs.
	Selector *selector.Selector
	// QueueSize bounds the misses waiting for a route slot; <= 0 means 64.
	QueueSize int
	// CacheSize bounds the cache in routed layouts (and, with StoreDir,
	// after compaction, its disk use); 0 means 256, or 4096 with StoreDir.
	// Negative disables caching, which StoreDir does not allow.
	CacheSize int
	// MaxVolume rejects layouts with more Hanan-graph vertices (guards
	// both decode-time allocation and per-request CPU); <= 0 means 1<<20.
	MaxVolume int
	// DefaultTimeout is applied to requests whose context has no
	// deadline; <= 0 leaves them unbounded.
	DefaultTimeout time.Duration
	// StoreDir makes the cache persistent (internal/store): routed
	// layouts are written through to checksummed segment files under this
	// directory and reloaded on the next start, so a restarted daemon
	// serves previously-routed layouts from disk without touching the
	// selector. Records are versioned by the selector's weight fingerprint;
	// starting with a retrained model invalidates every stored route.
	// Empty keeps the cache in memory only.
	StoreDir string
	// StoreFlushEvery is how many freshly routed layouts trigger a
	// background segment write; <= 0 means the store's default (32). Lower
	// it when routes must survive a crash quickly (the corrupt-store chaos
	// scenario runs at 1); Close always lands the partial batch regardless.
	StoreFlushEvery int

	// gate, when non-nil, is waited on by every admitted miss before it
	// takes a route slot; test hook for deterministically holding the
	// queue full. Tests only ever close it, which releases every miss at
	// once.
	gate chan struct{}
	// sleep is the retry backoff's clock, injectable so tests observe the
	// schedule without wall-clock waits; nil means time.Sleep.
	sleep func(time.Duration)
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
		if c.StoreDir != "" {
			c.CacheSize = 4096
		}
	}
	if c.MaxVolume <= 0 {
		c.MaxVolume = 1 << 20
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return c
}

// A transient selector-inference failure (an error matching
// oarsmt.ErrTransient) is retried maxRetries times before the request
// degrades to the plain-OARMST fallback. The first retry waits
// retryBackoff, doubling per attempt up to retryBackoffMax; the schedule
// is deterministic — no jitter — so fault-injection tests replay exactly.
const (
	maxRetries      = 2
	retryBackoff    = time.Millisecond
	retryBackoffMax = 50 * time.Millisecond
)

// Coord3 is a grid coordinate in a JSON-friendly shape. It is the wire
// protocol's coordinate type; the alias keeps every in-repo call site
// compiling while the authoritative definition lives in package wire.
type Coord3 = wire.Coord3

// Response is the answer to one routing request; it is exactly the wire
// protocol's route response (the coordinator-only Worker/Hedged fields
// stay empty when a worker is addressed directly).
type Response = wire.RouteResponse

// Service is the embeddable routing service. Create one with NewService
// and shut it down with Close.
type Service struct {
	cfg    Config
	router *core.Router
	// store is the one cache tier, persistent when StoreDir is set; nil
	// only when CacheSize < 0.
	store *store.Store

	mu       sync.RWMutex // serializes admission against Close
	closed   bool
	admitted sync.WaitGroup // misses admitted and not yet answered
	waiting  atomic.Int64   // admitted misses without a route slot (the queue)
	slots    chan struct{}  // route slots: one token per running route

	start time.Time
	m     *metrics
}

// NewService starts a service over the configuration.
func NewService(cfg Config) (*Service, error) {
	if cfg.Selector == nil {
		return nil, fmt.Errorf("%w: serve: Config.Selector is required", errs.ErrInvalidConfig)
	}
	if cfg.CacheSize < 0 && cfg.StoreDir != "" {
		return nil, fmt.Errorf("%w: serve: a negative CacheSize disables the cache StoreDir persists", errs.ErrInvalidConfig)
	}
	cfg = cfg.withDefaults()
	lanes := runtime.GOMAXPROCS(0)
	s := &Service{
		cfg:    cfg,
		router: core.NewRouter(cfg.Selector),
		slots:  make(chan struct{}, lanes),
		start:  time.Now(),
		m:      newMetrics(),
	}
	if cfg.CacheSize > 0 {
		opts := store.Options{MaxEntries: cfg.CacheSize, Registry: s.m.reg}
		if cfg.StoreDir != "" {
			opts.Dir = cfg.StoreDir
			opts.Fingerprint = store.Fingerprint(cfg.Selector.Fingerprint())
			opts.FlushEvery = cfg.StoreFlushEvery
		}
		st, err := store.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("serve: open route store: %w", err)
		}
		s.store = st
	}
	// Instantaneous state exports as on-demand gauges: evaluated at
	// snapshot/scrape time, so they are never stale the way a periodically
	// copied struct was.
	s.m.reg.GaugeFunc("serve.queue_depth", func() float64 { return float64(s.waiting.Load()) })
	s.m.reg.GaugeFunc("serve.queue_capacity", func() float64 { return float64(cfg.QueueSize) })
	// serve.cache.size reads the store, whose store.entries is the same
	// number.
	s.m.reg.GaugeFunc("serve.cache.size", func() float64 {
		if s.store == nil {
			return 0
		}
		return float64(s.store.Len())
	})
	s.m.reg.GaugeFunc("serve.uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
	s.m.reg.GaugeFunc("serve.lanes", func() float64 { return float64(lanes) })
	return s, nil
}

// Registry exposes the service's metric registry so embedding callers can
// export it alongside their own; the HTTP layer's GET /metrics uses it.
func (s *Service) Registry() *obs.Registry { return s.m.reg }

// Closed reports whether the service has begun draining.
func (s *Service) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Close drains the service: new submissions are rejected with ErrClosed,
// every already-admitted miss is still routed and answered, and Close
// returns once all of them are. Safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.admitted.Wait()
	if s.store != nil {
		// Every admitted miss is answered, so no Put can race the final
		// flush; pending routes land in one last segment for the next start.
		s.store.Close()
	}
}

// Submit routes one instance through the service: cache lookup, then, on
// a miss, admission, a route slot and the route. It blocks until the
// response is ready or admission refuses the request. A cancelled ctx
// ends the wait for a slot at once and a running route's construction at
// its next check, but not a selector inference already under way.
func (s *Service) Submit(ctx context.Context, in *layout.Instance) (*Response, error) {
	if in == nil || in.Graph == nil {
		return nil, fmt.Errorf("%w: serve: nil instance", errs.ErrInvalidLayout)
	}
	if in.Graph.NumVertices() > s.cfg.MaxVolume {
		return nil, fmt.Errorf("%w: %d vertices, budget %d",
			ErrTooLarge, in.Graph.NumVertices(), s.cfg.MaxVolume)
	}
	if s.cfg.DefaultTimeout > 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
			defer cancel()
		}
	}

	start := time.Now()
	key, toCanon := canonicalize(in)
	if resp, ok := s.lookup(in, key, toCanon, start); ok {
		return resp, nil
	}
	s.m.cacheMisses.Inc()

	if fault.Enabled() {
		// Injection point for admission failures: Error sheds the request
		// as retryable (503 + Retry-After), Delay stalls admission to force
		// queueing/timeout behaviour.
		if err := fault.Inject("serve.enqueue"); err != nil {
			s.m.rejected.Inc()
			return nil, fmt.Errorf("serve: enqueue: %w", err)
		}
	}
	if err := s.admit(); err != nil {
		return nil, err
	}
	defer s.admitted.Done()
	resp, err := s.miss(ctx, in, key, toCanon, start)
	// Deadline expiries surface as the module's ErrTimeout.
	err = errs.Classify(err)
	if err != nil {
		s.m.failed.Inc()
	} else {
		s.m.completed.Inc()
	}
	s.m.latency.Observe(time.Since(start))
	return resp, err
}

// admit counts a miss into the waiting requests, or refuses it: ErrClosed
// once draining, ErrQueueFull when QueueSize misses already wait.
func (s *Service) admit() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if s.waiting.Add(1) > int64(s.cfg.QueueSize) {
		s.waiting.Add(-1)
		s.m.rejected.Inc()
		return ErrQueueFull
	}
	s.admitted.Add(1)
	s.m.submitted.Inc()
	return nil
}

// lookup serves a request straight from the cache when possible. The
// record replays through treeFromRecord's Validate path, so a collision or
// corrupt record is dropped from the store and served as a miss, never as
// a wrong tree.
func (s *Service) lookup(in *layout.Instance, key store.Key, toCanon grid.Aug, start time.Time) (*Response, bool) {
	if s.store == nil {
		return nil, false
	}
	rec, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	tree, steiner, ok := treeFromRecord(in, toCanon, rec)
	if !ok {
		s.store.Drop(key)
		return nil, false
	}
	s.m.submitted.Inc()
	s.m.completed.Inc()
	resp := s.buildResponse(in, tree, steiner, rec.UsedSteiner, rec.Proposed, start)
	s.markHit(resp)
	s.m.latency.Observe(time.Since(start))
	return resp, true
}

// markHit flags and counts a response answered from the cache; on a
// persistent store every hit is also served by the persistent tier.
func (s *Service) markHit(resp *Response) {
	resp.CacheHit = true
	resp.StoreHit = s.cfg.StoreDir != ""
	s.m.cacheHits.Inc()
	if resp.StoreHit {
		s.m.storeServed.Inc()
	}
}

// buildResponse shapes a routed tree into the wire response.
func (s *Service) buildResponse(in *layout.Instance, tree *route.Tree, steiner []grid.VertexID, usedSteiner bool, proposed int, start time.Time) *Response {
	g := in.Graph
	hor, ver, via := tree.WirelengthByAxis(g)
	resp := &Response{
		Name:          in.Name,
		Cost:          tree.Cost,
		HorWirelength: hor,
		VerWirelength: ver,
		ViaWirelength: via,
		NumEdges:      len(tree.Edges),
		SteinerPoints: make([]Coord3, 0, len(steiner)),
		UsedSteiner:   usedSteiner,
		Proposed:      proposed,
		ElapsedMillis: float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, sp := range steiner {
		c := g.CoordOf(sp)
		resp.SteinerPoints = append(resp.SteinerPoints, Coord3{H: c.H, V: c.V, M: c.M})
	}
	resp.Edges = make([][2]Coord3, 0, len(tree.Edges))
	for _, e := range tree.Edges {
		ca, cb := g.CoordOf(e.A), g.CoordOf(e.B)
		resp.Edges = append(resp.Edges, [2]Coord3{
			{H: ca.H, V: ca.V, M: ca.M},
			{H: cb.H, V: cb.V, M: cb.M},
		})
	}
	return resp
}

// miss answers an admitted request the cache could not. It waits for the
// gate and a route slot, both under ctx, and holds the slot while it
// answers. A request whose context ended while it waited spends no
// inference. The store is re-checked first: a concurrent miss of the same
// layout may have routed it since lookup, so at most GOMAXPROCS routes of
// one layout run at once.
func (s *Service) miss(ctx context.Context, in *layout.Instance, key store.Key, toCanon grid.Aug, start time.Time) (*Response, error) {
	if err := s.takeSlot(ctx); err != nil {
		return nil, err
	}
	defer func() { <-s.slots }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.store != nil {
		if rec, ok := s.store.Get(key); ok {
			return s.replay(ctx, in, toCanon, rec, start, 0, true, false)
		}
	}
	s.m.observeBatch(1)
	rec, degraded, err := s.route(ctx, in, key, toCanon)
	if err != nil {
		return nil, err
	}
	return s.replay(ctx, in, toCanon, rec, start, 1, false, degraded)
}

// takeSlot waits for the gate and then for a route slot; the request
// counts as waiting, in the queue's sense, until it holds the slot or
// ctx ends.
func (s *Service) takeSlot(ctx context.Context) error {
	admitted := time.Now()
	defer s.waiting.Add(-1)
	if s.cfg.gate != nil {
		select {
		case <-s.cfg.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.m.queueWait.Observe(time.Since(admitted))
	return nil
}

// route routes the layout in the request's orientation: the selector's
// proposal (with transient-failure retry and panic containment), the
// OARMST construction, then the write into the cache. An inference error
// that survives retries degrades the route to the plain OARMST; a panic
// (e.g. an injected one at selector.infer) fails it with ErrInternal, and
// the daemon stays alive.
func (s *Service) route(ctx context.Context, in *layout.Instance, key store.Key, toCanon grid.Aug) (rec *store.Record, degraded bool, err error) {
	var sps []grid.VertexID
	var inf int
	err = contained(func() error {
		var perr error
		sps, inf, perr = s.proposeWithRetry(ctx, in)
		return perr
	})
	switch {
	case err == nil:
		s.m.inferences.Add(int64(inf))
	case errors.Is(err, errs.ErrInternal):
		return nil, false, err
	default:
		degraded = true
	}
	var res *core.Result
	err = contained(func() error {
		var cerr error
		if degraded {
			res, cerr = s.router.ConstructPlain(ctx, in, 0)
		} else {
			res, cerr = s.router.Construct(ctx, in, sps, inf, 0)
		}
		return cerr
	})
	if err != nil {
		return nil, false, err
	}
	rec = recordFromTree(in, key, toCanon, res.Tree, res.SteinerPoints, res.UsedSteiner, res.Proposed)
	if !degraded && s.store != nil {
		// Never cache a degraded result: a poisoned cache would keep
		// answering without Steiner points after the fault clears.
		s.store.Put(rec)
	}
	return rec, degraded, nil
}

// replay maps a canonical-space record into the request's own orientation
// and answers it. A failed mapping (possible only under a hash collision)
// routes the request directly instead, uncached.
func (s *Service) replay(ctx context.Context, in *layout.Instance, toCanon grid.Aug, rec *store.Record, start time.Time, batchSize int, cacheHit, degraded bool) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tree, steiner, ok := treeFromRecord(in, toCanon, rec)
	if !ok {
		return s.routeFallback(ctx, in, start, batchSize)
	}
	resp := s.buildResponse(in, tree, steiner, rec.UsedSteiner, rec.Proposed, start)
	resp.BatchSize = batchSize
	if cacheHit {
		s.markHit(resp)
	}
	if degraded {
		resp.Degraded = true
		s.m.degraded.Inc()
	}
	return resp, nil
}

// routeFallback answers one request with a direct (uncached) route.
func (s *Service) routeFallback(ctx context.Context, in *layout.Instance, start time.Time, batchSize int) (*Response, error) {
	var res *core.Result
	err := contained(func() error {
		var rerr error
		res, rerr = s.router.Route(ctx, in)
		return rerr
	})
	if err != nil {
		return nil, err
	}
	s.m.inferences.Add(int64(res.Inferences))
	resp := s.buildResponse(in, res.Tree, res.SteinerPoints, res.UsedSteiner, res.Proposed, start)
	resp.BatchSize = batchSize
	if res.Degraded {
		resp.Degraded = true
		s.m.degraded.Inc()
	}
	return resp, nil
}

// proposeWithRetry runs the shared selector's proposal, retrying transient
// failures (errors matching errs.ErrTransient) up to maxRetries
// times with deterministic capped exponential backoff. The backoff sleeps
// through the injected Config.sleep clock, never reads the wall clock, and
// has no jitter, so a seeded fault schedule replays identically.
func (s *Service) proposeWithRetry(ctx context.Context, in *layout.Instance) ([]grid.VertexID, int, error) {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		sps, inf, err := s.router.TryPropose(in)
		if err == nil {
			return sps, inf, nil
		}
		if !errors.Is(err, errs.ErrTransient) || attempt >= maxRetries || ctx.Err() != nil {
			return nil, 0, err
		}
		s.m.retries.Inc()
		s.cfg.sleep(backoff)
		backoff *= 2
		backoff = min(backoff, retryBackoffMax)
	}
}

// contained runs fn with panic containment: a panic anywhere below (a
// route's inference and construction run through here) is recovered into
// an error matching errs.ErrInternal, which the HTTP layer maps to 500.
// The daemon never dies to a per-request panic.
func contained(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: recovered panic: %v", errs.ErrInternal, p)
		}
	}()
	return fn()
}
