// Package serve is the embeddable routing service of the repository: a
// long-running front end that amortizes model load and batches inference
// over the one-shot routing pipeline of internal/core.
//
// Requests enter a bounded job queue (backpressure: a full queue sheds
// load with ErrQueueFull, which the HTTP layer maps to 429 + Retry-After).
// GOMAXPROCS scheduler lanes drain the queue, each taking only what is
// already queued, group the drained layouts by size — the same-size
// grouping of internal/rl's Fig 9 training batches — and route every
// distinct layout on the internal/parallel worker pool: one inference on
// the shared selector (whose inference is goroutine-safe), then the OARMST
// construction. Results are memoized in one cache tier, an
// internal/store.Store keyed by the augmentation-normalized canonical
// layout hash, so any of the 16 symmetric orientations of a layout hits the
// same record. The store is memory-only by default; with Config.StoreDir it
// also persists to segment files, so a restarted daemon starts warm. Every
// hit is replayed through a Validate path, so a collision or corrupt record
// is a miss, never a wrong tree. Per-request deadlines travel as
// context.Context through internal/core and internal/route, interrupting
// even long Dijkstra expansions.
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
	"time"

	"oarsmt/internal/core"
	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/obs"
	"oarsmt/internal/parallel"
	"oarsmt/internal/route"
	"oarsmt/internal/selector"
	"oarsmt/internal/store"
	"oarsmt/wire"
)

// Sentinel errors of the service surface. All three are module-wide
// identities from internal/errs (re-exported at the root and coded by
// package wire), so errors.Is matches them across the HTTP boundary.
var (
	// ErrQueueFull is returned when the bounded job queue is at capacity;
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
	// request. Required. Every scheduler lane infers through this one
	// selector concurrently, so it must not be trained while the service
	// runs.
	Selector *selector.Selector
	// QueueSize bounds the job queue; <= 0 means 64.
	QueueSize int
	// MaxBatch caps how many already-queued jobs one lane pass drains;
	// <= 0 means 8, 1 disables batching.
	MaxBatch int
	// CacheSize bounds the memory-only cache in routed layouts; 0 means
	// 256, negative disables caching. Not read when StoreDir is set:
	// StoreMaxEntries bounds the cache then.
	CacheSize int
	// MaxVolume rejects layouts with more Hanan-graph vertices (guards
	// both decode-time allocation and per-request CPU); <= 0 means 1<<20.
	MaxVolume int
	// DefaultTimeout is applied to requests whose context has no
	// deadline; <= 0 leaves them unbounded.
	DefaultTimeout time.Duration
	// NoGuard and SequentialInference configure the underlying
	// core.Router, which otherwise keeps core.NewRouter's settings (one
	// retrace pass, guarded, one-shot inference).
	NoGuard             bool
	SequentialInference bool
	// StoreDir makes the cache persistent (internal/store): routed
	// layouts are written through to checksummed segment files under this
	// directory and reloaded on the next start, so a restarted daemon
	// serves previously-routed layouts from disk without touching the
	// selector. Records are versioned by the selector's weight fingerprint;
	// starting with a retrained model invalidates every stored route.
	// Empty keeps the cache in memory only.
	StoreDir string
	// StoreMaxEntries bounds the persistent cache's live records (and,
	// after compaction, its disk use); <= 0 means 4096. Only read when
	// StoreDir is set.
	StoreMaxEntries int
	// StoreFlushEvery is how many freshly routed layouts trigger a
	// background segment write; <= 0 means the store's default (32). Lower
	// it when routes must survive a crash quickly (the corrupt-store chaos
	// scenario runs at 1); Close always lands the partial batch regardless.
	StoreFlushEvery int
	// MaxRetries is how many times a transient selector-inference failure
	// (an error matching oarsmt.ErrTransient) is retried before the
	// request degrades to the plain-OARMST fallback; 0 means 2, negative
	// disables retries.
	MaxRetries int
	// RetryBackoff is the first retry's delay, doubling per attempt up to
	// RetryBackoffMax. The schedule is deterministic — no jitter — so
	// fault-injection tests replay exactly. Defaults: 1ms, capped at 50ms.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration

	// gate, when non-nil, is waited on by every lane before each pass;
	// test hook for deterministically holding the queue full. Tests only
	// ever close it, which releases all lanes at once.
	gate chan struct{}
	// sleep is the retry backoff's clock, injectable so tests observe the
	// schedule without wall-clock waits; nil means time.Sleep.
	sleep func(time.Duration)
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxVolume <= 0 {
		c.MaxVolume = 1 << 20
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 2
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 50 * time.Millisecond
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return c
}

// Coord3 is a grid coordinate in a JSON-friendly shape. It is the wire
// protocol's coordinate type; the alias keeps every in-repo call site
// compiling while the authoritative definition lives in package wire.
type Coord3 = wire.Coord3

// Response is the answer to one routing request; it is exactly the wire
// protocol's route response (the coordinator-only Worker/Hedged fields
// stay empty when a worker is addressed directly).
type Response = wire.RouteResponse

// job is one queued request.
type job struct {
	ctx      context.Context
	in       *layout.Instance
	key      store.Key
	toCanon  grid.Aug
	enqueued time.Time // Submit entry: the start of the request's latency
	queued   time.Time // queue push: the start of its serve.queue_wait

	resp *Response
	err  error
	done chan struct{}
}

// Service is the embeddable routing service. Create one with NewService
// and shut it down with Close.
type Service struct {
	cfg    Config
	router *core.Router
	queue  chan *job
	// store is the one cache tier, persistent when StoreDir is set; nil
	// only when CacheSize < 0 and StoreDir is empty.
	store *store.Store

	mu     sync.RWMutex // serializes enqueue against Close
	closed bool

	lanes sync.WaitGroup // the running scheduler lanes
	start time.Time
	m     *metrics
}

// NewService starts a service, and its GOMAXPROCS scheduler lanes, over
// the configuration.
func NewService(cfg Config) (*Service, error) {
	if cfg.Selector == nil {
		return nil, fmt.Errorf("%w: serve: Config.Selector is required", errs.ErrInvalidConfig)
	}
	cfg = cfg.withDefaults()
	r := core.NewRouter(cfg.Selector)
	r.GuardedAcceptance = !cfg.NoGuard
	if cfg.SequentialInference {
		r.Mode = core.Sequential
	}
	s := &Service{
		cfg:    cfg,
		router: r,
		queue:  make(chan *job, cfg.QueueSize),
		start:  time.Now(),
		m:      newMetrics(),
	}
	if cfg.StoreDir != "" || cfg.CacheSize > 0 {
		opts := store.Options{MaxEntries: cfg.CacheSize, Registry: s.m.reg}
		if cfg.StoreDir != "" {
			opts.Dir = cfg.StoreDir
			opts.Fingerprint = store.Fingerprint(cfg.Selector.Fingerprint())
			opts.MaxEntries = cfg.StoreMaxEntries
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
	s.m.reg.GaugeFunc("serve.queue_depth", func() float64 { return float64(len(s.queue)) })
	s.m.reg.GaugeFunc("serve.queue_capacity", func() float64 { return float64(cfg.QueueSize) })
	// serve.cache.size is the canonical name for the cache's entry count
	// (serve.cache_entries predates it and is kept for dashboards); both
	// read the store, whose store.entries is the same number.
	cacheSize := func() float64 {
		if s.store == nil {
			return 0
		}
		return float64(s.store.Len())
	}
	s.m.reg.GaugeFunc("serve.cache_entries", cacheSize)
	s.m.reg.GaugeFunc("serve.cache.size", cacheSize)
	s.m.reg.GaugeFunc("serve.uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
	lanes := runtime.GOMAXPROCS(0)
	s.m.reg.GaugeFunc("serve.lanes", func() float64 { return float64(lanes) })
	s.lanes.Add(lanes)
	for range lanes {
		go func() {
			defer s.lanes.Done()
			s.run()
		}()
	}
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
// every already-queued job is still routed and answered, and Close
// returns once every scheduler lane has exited. Safe to call more than
// once.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.lanes.Wait()
	if s.store != nil {
		// The lanes have exited, so no Put can race the final flush;
		// pending routes land in one last segment for the next start.
		s.store.Close()
	}
}

// Submit routes one instance through the service: cache lookup, then the
// batching queue. It blocks until the response is ready, the queue
// rejects the job, or ctx is cancelled.
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
		// Injection point for enqueue-path failures: Error sheds the
		// request as retryable (503 + Retry-After), Delay stalls admission
		// to force queueing/timeout behaviour.
		if err := fault.Inject("serve.enqueue"); err != nil {
			s.m.rejected.Inc()
			return nil, fmt.Errorf("serve: enqueue: %w", err)
		}
	}

	j := &job{ctx: ctx, in: in, key: key, toCanon: toCanon, enqueued: start, queued: time.Now(), done: make(chan struct{})}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case s.queue <- j:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.m.rejected.Inc()
		return nil, ErrQueueFull
	}
	s.m.submitted.Inc()

	select {
	case <-j.done:
		return j.resp, j.err
	case <-ctx.Done():
		// The lane observes the same context and will answer the job
		// with the cancellation; reporting it here keeps latency honest.
		return nil, errs.Classify(ctx.Err())
	}
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
	s.countHits(1)
	s.m.submitted.Inc()
	s.m.completed.Inc()
	resp := s.buildResponse(in, tree, steiner, rec.UsedSteiner, rec.Proposed, start)
	s.markHit(resp)
	s.m.latency.Observe(time.Since(start))
	return resp, true
}

// countHits counts n requests answered from the cache; on a persistent
// store every hit is also served by the persistent tier.
func (s *Service) countHits(n int64) {
	s.m.cacheHits.Add(n)
	if s.cfg.StoreDir != "" {
		s.m.storeServed.Add(n)
	}
}

// markHit flags a response answered from the cache.
func (s *Service) markHit(resp *Response) {
	resp.CacheHit = true
	resp.StoreHit = s.cfg.StoreDir != ""
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

// run is one scheduler lane: it drains the queue in batches, groups each
// drain by grid dimensions, and processes the groups. Lanes share the
// queue, the cache and the router.
func (s *Service) run() {
	for {
		if s.cfg.gate != nil {
			<-s.cfg.gate
		}
		first, ok := <-s.queue
		if !ok {
			return
		}
		batch := s.drainBatch(first)
		for _, j := range batch {
			s.m.queueWait.Observe(time.Since(j.queued))
		}
		for _, group := range groupByDims(batch) {
			s.processGroup(group)
		}
	}
}

// drainBatch adds to first up to MaxBatch-1 jobs already in the queue. It
// never waits: an idle lane picks up whatever arrives next.
func (s *Service) drainBatch(first *job) []*job {
	batch := []*job{first}
	for len(batch) < s.cfg.MaxBatch {
		select {
		case j, ok := <-s.queue:
			if !ok {
				return batch
			}
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// groupByDims splits a drained batch into same-size groups, preserving
// arrival order within and across groups.
func groupByDims(batch []*job) [][]*job {
	var order [][3]int
	groups := map[[3]int][]*job{}
	for _, j := range batch {
		g := j.in.Graph
		key := [3]int{g.H, g.V, g.M}
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], j)
	}
	out := make([][]*job, 0, len(order))
	for _, key := range order {
		out = append(out, groups[key])
	}
	return out
}

// rep is one distinct layout of a group: every job that asked for it
// (possibly in different orientations).
type rep struct {
	jobs []*job
}

// processGroup serves one same-size group: it dedups the jobs by layout
// and routes the distinct layouts in parallel, one inference on the shared
// selector each.
func (s *Service) processGroup(group []*job) {
	batchSize := len(group)
	s.m.observeBatch(batchSize)

	// Dedup by canonical key, preserving arrival order.
	var reps []*rep
	byKey := map[store.Key]*rep{}
	for _, j := range group {
		if r, ok := byKey[j.key]; ok {
			r.jobs = append(r.jobs, j)
			continue
		}
		r := &rep{jobs: []*job{j}}
		byKey[j.key] = r
		reps = append(reps, r)
	}
	parallel.For(len(reps), func(_, lo, hi int) {
		for _, r := range reps[lo:hi] {
			s.serveRep(r, batchSize)
		}
	})
}

// serveRep routes one distinct layout and answers all of its jobs: a cache
// re-check, the selector's proposal (with transient-failure retry and
// panic containment), the OARMST construction, then the write into the
// cache. Jobs whose record mapping fails (hash collision) are re-routed
// individually.
func (s *Service) serveRep(r *rep, batchSize int) {
	lead := r.lead()
	if lead == nil {
		// Every requester gave up while queued: shed the work.
		r.shed(s)
		return
	}
	if s.store != nil {
		if rec, ok := s.store.Get(lead.key); ok {
			// The layout was routed between enqueue and drain: a cache
			// hit for every job of the rep.
			s.countHits(int64(len(r.jobs)))
			for _, j := range s.answerFromRecord(r, rec, batchSize, true, false) {
				s.routeFallback(j, batchSize)
			}
			return
		}
	}
	// A panic (e.g. an injected one at selector.infer) fails the rep's
	// jobs with ErrInternal; the lane, and the daemon, stay alive. An
	// inference *error* that survives retries degrades the rep to the
	// plain OARMST.
	var sps []grid.VertexID
	var inf int
	err := contained(func() error {
		var perr error
		sps, inf, perr = s.proposeWithRetry(lead.ctx, lead.in)
		return perr
	})
	degraded := false
	switch {
	case err == nil:
		s.m.inferences.Add(int64(inf))
	case errors.Is(err, errs.ErrInternal):
		r.errOut(s, err)
		return
	default:
		degraded = true
	}

	// The proposal is in lead's orientation, so construction stays on
	// lead.in even if lead gave up meanwhile; it runs under the context of
	// a requester still waiting.
	live := r.lead()
	if live == nil {
		r.shed(s)
		return
	}
	var res *core.Result
	err = contained(func() error {
		var cerr error
		if degraded {
			res, cerr = s.router.ConstructPlain(live.ctx, lead.in, 0)
		} else {
			res, cerr = s.router.Construct(live.ctx, lead.in, sps, inf, 0)
		}
		return cerr
	})
	if err != nil {
		r.errOut(s, err)
		return
	}
	rec := recordFromTree(lead.in, lead.key, lead.toCanon, res.Tree, res.SteinerPoints, res.UsedSteiner, res.Proposed)
	if !degraded && s.store != nil {
		// Never cache a degraded result: a poisoned cache would keep
		// answering without Steiner points after the fault clears.
		s.store.Put(rec)
	}
	for _, j := range s.answerFromRecord(r, rec, batchSize, false, degraded) {
		s.routeFallback(j, batchSize)
	}
}

// routeFallback answers one job with a direct (unbatched, uncached) route.
func (s *Service) routeFallback(j *job, batchSize int) {
	var res *core.Result
	err := contained(func() error {
		var rerr error
		res, rerr = s.router.Route(j.ctx, j.in)
		return rerr
	})
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	s.m.inferences.Add(int64(res.Inferences))
	resp := s.buildResponse(j.in, res.Tree, res.SteinerPoints, res.UsedSteiner, res.Proposed, j.enqueued)
	resp.BatchSize = batchSize
	if res.Degraded {
		resp.Degraded = true
		s.m.degraded.Inc()
	}
	s.finish(j, resp, nil)
}

// proposeWithRetry runs the shared selector's proposal, retrying transient
// failures (errors matching errs.ErrTransient) up to Config.MaxRetries
// times with deterministic capped exponential backoff. The backoff sleeps
// through the injected Config.sleep clock, never reads the wall clock, and
// has no jitter, so a seeded fault schedule replays identically.
func (s *Service) proposeWithRetry(ctx context.Context, in *layout.Instance) ([]grid.VertexID, int, error) {
	backoff := s.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		sps, inf, err := s.router.TryPropose(in)
		if err == nil {
			return sps, inf, nil
		}
		if !errors.Is(err, errs.ErrTransient) || attempt >= s.cfg.MaxRetries || ctx.Err() != nil {
			return nil, 0, err
		}
		s.m.retries.Inc()
		s.cfg.sleep(backoff)
		backoff *= 2
		if backoff > s.cfg.RetryBackoffMax {
			backoff = s.cfg.RetryBackoffMax
		}
	}
}

// contained runs fn with panic containment: a panic anywhere below (a
// lane's inference and construction route through here) is
// recovered into an error matching errs.ErrInternal, which the HTTP layer
// maps to 500. The daemon never dies to a per-request panic.
func contained(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: recovered panic: %v", errs.ErrInternal, p)
		}
	}()
	return fn()
}

// lead returns the first job of the rep whose context is still live, or
// nil when all have been cancelled.
func (r *rep) lead() *job {
	for _, j := range r.jobs {
		if j.ctx.Err() == nil {
			return j
		}
	}
	return nil
}

// errOut answers every job of the rep with the error.
func (r *rep) errOut(s *Service, err error) {
	for _, j := range r.jobs {
		s.finish(j, nil, err)
	}
}

// shed answers every job of the rep with its own context's error, once
// all of them have given up.
func (r *rep) shed(s *Service) {
	for _, j := range r.jobs {
		s.finish(j, nil, j.ctx.Err())
	}
}

// answerFromRecord maps a canonical-space record into each requesting
// job's own orientation and answers it. It returns the jobs whose mapping
// failed (possible only under a hash collision); the caller re-routes
// those via routeFallback.
func (s *Service) answerFromRecord(r *rep, rec *store.Record, batchSize int, cacheHit, degraded bool) []*job {
	var fallback []*job
	for _, j := range r.jobs {
		if err := j.ctx.Err(); err != nil {
			s.finish(j, nil, err)
			continue
		}
		tree, steiner, ok := treeFromRecord(j.in, j.toCanon, rec)
		if !ok {
			fallback = append(fallback, j)
			continue
		}
		resp := s.buildResponse(j.in, tree, steiner, rec.UsedSteiner, rec.Proposed, j.enqueued)
		resp.BatchSize = batchSize
		if cacheHit {
			s.markHit(resp)
		}
		if degraded {
			resp.Degraded = true
			s.m.degraded.Inc()
		}
		s.finish(j, resp, nil)
	}
	return fallback
}

// finish answers a job exactly once and records latency. Errors are
// classified so deadline expiries surface as the module's ErrTimeout.
func (s *Service) finish(j *job, resp *Response, err error) {
	err = errs.Classify(err)
	j.resp, j.err = resp, err
	if err != nil {
		s.m.failed.Inc()
	} else {
		s.m.completed.Inc()
	}
	s.m.latency.Observe(time.Since(j.enqueued))
	close(j.done)
}
