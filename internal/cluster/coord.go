package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oarsmt/client"
	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
	"oarsmt/internal/layout"
	"oarsmt/internal/obs"
	"oarsmt/internal/serve"
	"oarsmt/wire"
)

// virtualNodes is the points-per-worker on the hash ring.
const virtualNodes = 64

// replicaQueue bounds the replication queue. A full queue drops (and
// counts) instead of blocking the routing path.
const replicaQueue = 64

// Config configures a Coordinator. The zero value of every field is
// usable; defaults favour small test clusters.
type Config struct {
	// LeaseTTL is how long a worker registration lives without renewal;
	// default 10s. Workers conventionally renew every TTL/3. Expired
	// leases are collected every LeaseTTL/2, and a worker restored from
	// StateDir starts with a full LeaseTTL.
	LeaseTTL time.Duration
	// HedgeDelay is how long the primary shard may stay silent before
	// an identical request is hedged to the next replica; 0 defaults to
	// 100ms. Negative disables hedging.
	HedgeDelay time.Duration
	// ForwardTimeout bounds each forwarded request; default 60s.
	ForwardTimeout time.Duration
	// MaxVolume rejects layouts with more Hanan-graph vertices, the
	// same guard the workers apply; default 1<<20.
	MaxVolume int

	// StateDir, when set, persists the coordinator's membership as
	// internal/ckpt frames so a restarted coordinator rebuilds its ring
	// instead of blacking out until every agent re-registers. Empty
	// keeps membership in memory only.
	StateDir string

	// MaxInflight bounds concurrently admitted forwards; excess
	// requests are shed with ErrQueueFull (HTTP 429 + Retry-After).
	// Default 256; negative disables the bound.
	MaxInflight int

	// BreakerThreshold is how many consecutive health-indicating
	// failures trip a worker's circuit breaker open; default 5,
	// negative disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects traffic
	// before admitting a half-open probe; default 3s.
	BreakerCooldown time.Duration

	// Replicate enables the replica fan-out: fresh non-degraded routes
	// are asynchronously installed on the key's next distinct ring
	// replica, so a dead worker's shard serves warm from its successor.
	Replicate bool

	// now is the lease clock, injectable by tests.
	now func() time.Time
	// newClient builds the per-worker client, injectable by tests.
	newClient func(addr string) (*client.Client, error)
}

func (c *Config) fill() {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 100 * time.Millisecond
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 60 * time.Second
	}
	if c.MaxVolume <= 0 {
		c.MaxVolume = 1 << 20
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 3 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// worker is the coordinator's view of one registered shard.
type worker struct {
	id      string
	addr    string
	cl      *client.Client
	breaker *breaker

	mu         sync.Mutex
	leaseUntil time.Time
	draining   bool

	forwards atomic.Int64
	errors   atomic.Int64
	inflight atomic.Int64 // attempts currently outstanding
	hedges   atomic.Int64 // hedged attempts this worker has served
}

// newWorker builds a shard handle with a fresh breaker; a re-registered
// worker starts closed (it just proved it is back).
func (c *Coordinator) newWorker(id, addr string, cl *client.Client) *worker {
	return &worker{
		id: id, addr: addr, cl: cl,
		breaker: newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown),
	}
}

func (w *worker) eligible(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.draining && now.Before(w.leaseUntil)
}

// cmetrics are the coordinator's instruments, a per-Coordinator
// obs.Registry exported on /v1/metrics.
type cmetrics struct {
	reg *obs.Registry

	forwards  *obs.Counter // requests forwarded to a shard
	completed *obs.Counter // requests answered successfully
	failed    *obs.Counter // requests answered with an error
	hedges    *obs.Counter // hedged second attempts launched
	hedgeWins *obs.Counter // hedged attempts that answered first
	retries   *obs.Counter // failed primaries retried on the fallback shard
	expired   *obs.Counter // worker leases collected by the sweep
	drained   *obs.Counter // workers that drained gracefully
	latency   *obs.Histogram

	shed         *obs.Counter // requests rejected at the admission bound
	breakerOpens *obs.Counter // breaker trips (closed/half-open -> open)

	replicated         *obs.Counter // replica installs delivered
	replicationErrors  *obs.Counter // replica installs that failed
	replicationDropped *obs.Counter // replica jobs dropped (queue full)

	stateErrors *obs.Counter // coordinator-state persist failures
}

func newCMetrics() *cmetrics {
	reg := obs.NewRegistry()
	return &cmetrics{
		reg:       reg,
		forwards:  reg.Counter("cluster.forwards"),
		completed: reg.Counter("cluster.completed"),
		failed:    reg.Counter("cluster.failed"),
		hedges:    reg.Counter("cluster.hedges"),
		hedgeWins: reg.Counter("cluster.hedge_wins"),
		retries:   reg.Counter("cluster.retries"),
		expired:   reg.Counter("cluster.expired"),
		drained:   reg.Counter("cluster.drained"),
		latency:   reg.Histogram("cluster.latency"),

		shed:         reg.Counter("cluster.shed"),
		breakerOpens: reg.Counter("cluster.breaker_opens"),

		replicated:         reg.Counter("cluster.replicated"),
		replicationErrors:  reg.Counter("cluster.replication_errors"),
		replicationDropped: reg.Counter("cluster.replication_dropped"),

		stateErrors: reg.Counter("cluster.state_errors"),
	}
}

// Coordinator shards routing requests across registered workers by
// canonical layout hash. It is itself served over the same wire
// protocol as a worker, so clients cannot tell the difference.
type Coordinator struct {
	cfg   Config
	start time.Time
	m     *cmetrics

	mu      sync.Mutex
	workers map[string]*worker
	ring    *ring
	closed  bool

	// inflight is the admission counter of the load-shedding bound.
	inflight atomic.Int64

	// replq is the bounded replication queue; nil when Replicate is off.
	replq chan replJob

	// persistMu serializes state writes so a slow fsync never holds the
	// membership lock; stateSeq numbers the ckpt frames.
	persistMu sync.Mutex
	stateSeq  int
	// restored counts workers rebuilt from StateDir at startup.
	restored int64

	done chan struct{}
	wg   sync.WaitGroup
}

// New starts a coordinator and its lease sweeper.
func New(cfg Config) (*Coordinator, error) {
	cfg.fill()
	if cfg.newClient == nil {
		timeout := cfg.ForwardTimeout
		cfg.newClient = func(addr string) (*client.Client, error) {
			return client.New(client.Config{BaseURL: addr, Timeout: timeout})
		}
	}
	c := &Coordinator{
		cfg:     cfg,
		start:   cfg.now(),
		m:       newCMetrics(),
		workers: map[string]*worker{},
		ring:    newRing(virtualNodes),
		done:    make(chan struct{}),
	}
	// Rebuild membership from the persisted state before anything can
	// route or sweep; restored workers carry a recovery-grace lease.
	if err := c.restoreState(); err != nil {
		return nil, err
	}
	if cfg.Replicate {
		c.replq = make(chan replJob, replicaQueue)
		c.wg.Add(1)
		go c.replicate()
	}
	c.m.reg.GaugeFunc("cluster.workers", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.workers))
	})
	c.m.reg.GaugeFunc("cluster.uptime_seconds", func() float64 {
		return c.cfg.now().Sub(c.start).Seconds()
	})
	c.m.reg.GaugeFunc("cluster.inflight", func() float64 {
		return float64(c.inflight.Load())
	})
	c.m.reg.GaugeFunc("cluster.restored", func() float64 {
		return float64(c.restored)
	})
	c.wg.Add(1)
	go c.sweep()
	return c, nil
}

// Close stops the lease sweeper. In-flight forwards finish on their own
// contexts.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	c.wg.Wait()
}

// sweep periodically collects workers whose lease lapsed without
// renewal. Eligibility checks already exclude them from routing the
// moment the lease expires; the sweep reclaims the bookkeeping and
// counts the loss.
func (c *Coordinator) sweep() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.LeaseTTL / 2)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.collectExpired()
		}
	}
}

func (c *Coordinator) collectExpired() {
	now := c.cfg.now()
	removed := 0
	c.mu.Lock()
	for id, w := range c.workers {
		w.mu.Lock()
		expired := now.After(w.leaseUntil)
		draining := w.draining
		w.mu.Unlock()
		if expired {
			delete(c.workers, id)
			c.ring.remove(id)
			removed++
			if !draining {
				c.m.expired.Inc()
			}
		}
	}
	c.mu.Unlock()
	if removed > 0 {
		c.persistState()
	}
}

// register adds or refreshes a worker, persisting the membership when
// it changed (a plain lease refresh does not touch the state file).
func (c *Coordinator) register(req wire.RegisterRequest) (wire.RegisterResponse, error) {
	resp, changed, err := c.registerMember(req)
	if err == nil && changed {
		c.persistState()
	}
	return resp, err
}

func (c *Coordinator) registerMember(req wire.RegisterRequest) (wire.RegisterResponse, bool, error) {
	if req.ID == "" || req.Addr == "" {
		return wire.RegisterResponse{}, false, fmt.Errorf("%w: register: id and addr are required", errs.ErrInvalidConfig)
	}
	if req.Proto != 0 && (req.Proto < wire.MinVersion || req.Proto > wire.Version) {
		return wire.RegisterResponse{}, false, fmt.Errorf("%w: register: worker speaks version %d, coordinator accepts [%d, %d]",
			errs.ErrUnsupportedProto, req.Proto, wire.MinVersion, wire.Version)
	}
	until := c.cfg.now().Add(c.cfg.LeaseTTL)
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, existed := c.workers[req.ID]
	if existed {
		prev.mu.Lock()
		prev.leaseUntil = until
		wasDraining := prev.draining
		prev.draining = false
		sameAddr := prev.addr == req.Addr
		prev.mu.Unlock()
		if sameAddr {
			// Un-draining is a membership change (the state file omits
			// draining workers); a plain refresh is not.
			return wire.RegisterResponse{TTLMillis: c.cfg.LeaseTTL.Milliseconds()}, wasDraining, nil
		}
	}
	// Build the client before touching membership: a malformed advertised
	// address must leave an existing healthy registration intact.
	cl, err := c.cfg.newClient(req.Addr)
	if err != nil {
		return wire.RegisterResponse{}, false, err
	}
	if existed {
		// The worker moved: swap in the new client, keep its ring points
		// (identity, not address, owns the shard).
		delete(c.workers, req.ID)
		c.ring.remove(req.ID)
	}
	w := c.newWorker(req.ID, req.Addr, cl)
	w.leaseUntil = until
	c.workers[req.ID] = w
	c.ring.add(req.ID)
	return wire.RegisterResponse{TTLMillis: c.cfg.LeaseTTL.Milliseconds()}, true, nil
}

// renew extends a known worker's lease; an unknown ID is an error so
// the worker knows to re-register.
func (c *Coordinator) renew(id string) (wire.LeaseResponse, error) {
	c.mu.Lock()
	w := c.workers[id]
	c.mu.Unlock()
	if w == nil {
		return wire.LeaseResponse{}, fmt.Errorf("%w: lease: unknown worker %q (re-register)", errs.ErrInvalidConfig, id)
	}
	w.mu.Lock()
	w.leaseUntil = c.cfg.now().Add(c.cfg.LeaseTTL)
	w.mu.Unlock()
	return wire.LeaseResponse{TTLMillis: c.cfg.LeaseTTL.Milliseconds()}, nil
}

// drain marks a worker as shutting down: no new work routes to it, its
// in-flight requests finish on the worker's own drain path, and the
// sweep reclaims it once the lease lapses.
func (c *Coordinator) drain(id string) error {
	c.mu.Lock()
	w := c.workers[id]
	c.mu.Unlock()
	if w == nil {
		return fmt.Errorf("%w: drain: unknown worker %q", errs.ErrInvalidConfig, id)
	}
	w.mu.Lock()
	already := w.draining
	w.draining = true
	w.mu.Unlock()
	if !already {
		c.m.drained.Inc()
		c.persistState()
	}
	return nil
}

// pick returns the key's home shard and its fallback: the first two
// eligible workers in ring order from the key's position. Breakers
// filter the choice: a worker whose breaker is open is skipped, a
// half-open one may serve as primary (consuming its single probe slot —
// probe reports that), and only fully closed workers serve as the
// fallback, so a recovering shard's probe is never a speculative hedge
// that might go unawaited.
func (c *Coordinator) pick(key string) (primary *worker, probe bool, secondary *worker) {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.ring.pick(key, len(c.workers)) {
		w := c.workers[id]
		if w == nil || !w.eligible(now) {
			continue
		}
		if primary == nil {
			if ok, p := w.breaker.admit(now); ok {
				primary, probe = w, p
			}
			continue
		}
		if !w.breaker.closedNow() {
			continue
		}
		return primary, probe, w
	}
	return primary, probe, nil
}

// Workers returns the current membership, sorted by id.
func (c *Coordinator) Workers() []wire.WorkerInfo {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		w.mu.Lock()
		info := wire.WorkerInfo{
			ID:          w.id,
			Addr:        w.addr,
			Draining:    w.draining,
			LeaseMillis: w.leaseUntil.Sub(now).Milliseconds(),
			Forwards:    w.forwards.Load(),
			Errors:      w.errors.Load(),
			Breaker:     w.breaker.stateAt(now),
			InFlight:    w.inflight.Load(),
			Hedges:      w.hedges.Load(),
		}
		w.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns the coordinator's snapshot.
func (c *Coordinator) Stats() wire.ClusterStats {
	m := c.m
	return wire.ClusterStats{
		UptimeSeconds: c.cfg.now().Sub(c.start).Seconds(),
		Workers:       c.Workers(),
		Forwards:      m.forwards.Load(),
		Completed:     m.completed.Load(),
		Failed:        m.failed.Load(),
		Hedges:        m.hedges.Load(),
		HedgeWins:     m.hedgeWins.Load(),
		Retries:       m.retries.Load(),
		Expired:       m.expired.Load(),
		Drained:       m.drained.Load(),

		InFlight:           c.inflight.Load(),
		Shed:               m.shed.Load(),
		BreakerOpens:       m.breakerOpens.Load(),
		Replicated:         m.replicated.Load(),
		ReplicationErrors:  m.replicationErrors.Load(),
		ReplicationDropped: m.replicationDropped.Load(),
		Restored:           c.restored,

		P50Millis: float64(m.latency.Percentile(0.50).Microseconds()) / 1000,
		P99Millis: float64(m.latency.Percentile(0.99).Microseconds()) / 1000,
	}
}

// forward routes one request to its shard, hedging to the fallback when
// the primary is slow and retrying on it when the primary fails with a
// retryable error. The winning worker's id is stamped on the response.
// Admission is bounded first: past MaxInflight the request is shed with
// ErrQueueFull (HTTP 429 + Retry-After) without spending a forward.
func (c *Coordinator) forward(ctx context.Context, key string, req *wire.RouteRequest) (*wire.RouteResponse, error) {
	n := c.inflight.Add(1)
	defer c.inflight.Add(-1)
	if limit := c.cfg.MaxInflight; limit > 0 && n > int64(limit) {
		c.m.shed.Inc()
		return nil, fmt.Errorf("%w: coordinator at admission limit (%d in flight)", errs.ErrQueueFull, limit)
	}
	primary, probe, secondary := c.pick(key)
	if primary == nil {
		return nil, fmt.Errorf("%w: cluster has no admitting workers", errs.ErrTransient)
	}
	// Replication needs the routed tree: ask the worker for edges even
	// when the client did not, and strip them from the client's copy.
	fwd := req
	if c.replq != nil && !req.Edges {
		r2 := *req
		r2.Edges = true
		fwd = &r2
	}
	c.m.forwards.Inc()
	start := c.cfg.now()
	resp, err := c.race(ctx, fwd, primary, probe, secondary)
	c.m.latency.Observe(c.cfg.now().Sub(start))
	if err != nil {
		c.m.failed.Inc()
		return nil, err
	}
	c.m.completed.Inc()
	if c.replq != nil {
		if !resp.CacheHit {
			// Fresh answer: warm the key's successor. Cache hits are not
			// re-replicated — their first serve already was.
			c.enqueueReplication(key, req.Layout, resp)
		}
		if !req.Edges {
			out := *resp
			out.Edges = nil
			resp = &out
		}
	}
	return resp, nil
}

// attemptResult is one shard attempt's outcome.
type attemptResult struct {
	resp   *wire.RouteResponse
	err    error
	w      *worker
	hedged bool
}

// race runs the primary attempt, arming a hedge to the fallback shard
// on the configured delay. fault point "cluster.forward" fires once per
// attempt, before the request leaves the coordinator: Delay mode makes
// a shard look slow (driving a hedge), Error mode makes it fail
// (driving a retry).
func (c *Coordinator) race(ctx context.Context, req *wire.RouteRequest, primary *worker, probe bool, secondary *worker) (*wire.RouteResponse, error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptResult, 2)
	attempt := func(ctx context.Context, w *worker, hedged, probe bool) {
		w.forwards.Add(1)
		w.inflight.Add(1)
		if hedged {
			w.hedges.Add(1)
		}
		var resp *wire.RouteResponse
		err := fault.Inject("cluster.forward")
		if err == nil {
			resp, err = w.cl.RouteJSON(ctx, req.Layout, &client.RouteOptions{
				Timeout: time.Duration(req.TimeoutMillis) * time.Millisecond,
				Edges:   req.Edges,
			})
		}
		w.inflight.Add(-1)
		// The breaker only hears health verdicts: successes and failures
		// that indict the worker. Neutral errors (invalid layout) would
		// trip it on every shard identically — except a probe's, which
		// must always resolve or the half-open slot would leak.
		if failed := err != nil && breakerFailure(err); probe || err == nil || failed {
			if w.breaker.record(c.cfg.now(), failed, probe) {
				c.m.breakerOpens.Inc()
			}
		}
		if err != nil {
			w.errors.Add(1)
		} else {
			resp.Worker = w.id
			resp.Hedged = hedged
		}
		results <- attemptResult{resp, err, w, hedged}
	}
	go attempt(fctx, primary, false, probe)

	hedge := func() bool {
		if secondary == nil {
			return false
		}
		s := secondary
		secondary = nil
		go attempt(fctx, s, true, false)
		return true
	}

	var firstErr error
	outstanding := 1
	armed := c.cfg.HedgeDelay > 0 && secondary != nil
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if armed {
		hedgeTimer = time.NewTimer(c.cfg.HedgeDelay)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	for outstanding > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			// hedge() is a no-op when the fast-failure retry below already
			// consumed the fallback; counting an attempt then would leave
			// the loop waiting on a result that never comes.
			if hedge() {
				c.m.hedges.Inc()
				outstanding++
			}
		case r := <-results:
			outstanding--
			if r.err == nil {
				if r.hedged {
					c.m.hedgeWins.Inc()
				}
				return r.resp, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			// A failed attempt frees the fallback for an immediate
			// retry — no point waiting out the hedge timer on a shard
			// that already answered with an error.
			if client.Retryable(r.err) && hedge() {
				c.m.retries.Inc()
				outstanding++
			}
		case <-fctx.Done():
			return nil, errs.Classify(fctx.Err())
		}
	}
	return nil, firstErr
}

// canonicalKey decodes a layout and returns its canonical shard key; the
// decode also validates the layout before any forward. The shard key is
// serve.CanonicalKey, the same digest the worker's store files the route
// under, so all 16 orientations of a layout reach the worker that holds it.
func (c *Coordinator) canonicalKey(layoutJSON []byte) (string, error) {
	in, err := layout.DecodeWithLimit(bytes.NewReader(layoutJSON), c.cfg.MaxVolume)
	if err != nil {
		return "", err
	}
	return serve.CanonicalKey(in), nil
}

// Handler returns the coordinator's HTTP surface: the same data-plane
// paths a worker serves, plus the cluster plane.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+wire.PathRoute, c.handleRouteV1)
	mux.HandleFunc("GET "+wire.PathHealthz, c.handleHealthz)
	mux.HandleFunc("GET "+wire.PathStats, c.handleStats)
	mux.HandleFunc("GET "+wire.PathMetrics, c.handleMetrics)

	mux.HandleFunc("POST "+wire.PathRegister, c.handleRegister)
	mux.HandleFunc("POST "+wire.PathLease, c.handleLease)
	mux.HandleFunc("POST "+wire.PathDrain, c.handleDrain)
	return mux
}

func (c *Coordinator) handleRouteV1(w http.ResponseWriter, r *http.Request) {
	var req wire.RouteRequest
	if err := wire.ReadEnvelope(w, r, &req, &req.Layout); err != nil {
		wire.WriteError(w, err)
		return
	}
	key, err := c.canonicalKey(req.Layout)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	resp, err := c.forward(r.Context(), key, &req)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	wire.WriteJSON(w, resp)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	wire.WriteHealthz(w, closed)
}

func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	wire.WriteJSON(w, c.Stats())
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	wire.SetProto(w.Header())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.m.reg.WritePrometheus(w)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if err := wire.ReadJSON(w, r, &req, errs.ErrInvalidConfig); err != nil {
		wire.WriteError(w, err)
		return
	}
	resp, err := c.register(req)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	wire.WriteJSON(w, resp)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req wire.LeaseRequest
	if err := wire.ReadJSON(w, r, &req, errs.ErrInvalidConfig); err != nil {
		wire.WriteError(w, err)
		return
	}
	resp, err := c.renew(req.ID)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	wire.WriteJSON(w, resp)
}

func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req wire.DrainRequest
	if err := wire.ReadJSON(w, r, &req, errs.ErrInvalidConfig); err != nil {
		wire.WriteError(w, err)
		return
	}
	if err := c.drain(req.ID); err != nil {
		wire.WriteError(w, err)
		return
	}
	wire.WriteJSON(w, struct{}{})
}
