package serve

import (
	"time"

	"oarsmt/internal/obs"
	"oarsmt/wire"
)

// metrics are the service's instruments, resolved once from a per-Service
// obs.Registry so two services in one process (tests, blue/green) never
// share state and the hot paths only touch atomics. The registry is also
// what GET /metrics exports; earlier revisions kept a bespoke atomic
// struct here whose snapshot raced batch completion.
type metrics struct {
	reg *obs.Registry

	submitted   *obs.Counter // requests accepted (admitted or served from cache)
	completed   *obs.Counter // requests answered successfully
	failed      *obs.Counter // admitted requests answered with an error
	rejected    *obs.Counter // submissions shed with ErrQueueFull (HTTP 429)
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	// storeServed counts requests a persistent cache answered after
	// validation: every hit when StoreDir is set (the store's own
	// store.hits counts index lookups).
	storeServed *obs.Counter
	batches     *obs.Counter // routes run
	batchedJobs *obs.Counter // requests those routes answered
	inferences  *obs.Counter // selector network inferences spent
	degraded    *obs.Counter // responses answered by the plain-OARMST fallback
	retries     *obs.Counter // transient-inference retries spent
	// replicated / replicateRejected count /v1/replicate installs accepted
	// and refused (validation failure, degraded payload, draining).
	replicated        *obs.Counter
	replicateRejected *obs.Counter
	maxBatch          *obs.Gauge // high-watermark of requests per route
	latency           *obs.Histogram
	// queueWait is each route's wait from admission to its route slot:
	// the serving overhead a miss pays before its route starts.
	queueWait *obs.Histogram
}

// newMetrics builds the service registry. The queue/cache/uptime/lanes gauges
// are registered later by NewService: they close over the Service, which
// does not exist yet when its metrics field is initialized.
func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:               reg,
		submitted:         reg.Counter("serve.submitted"),
		completed:         reg.Counter("serve.completed"),
		failed:            reg.Counter("serve.failed"),
		rejected:          reg.Counter("serve.rejected"),
		cacheHits:         reg.Counter("serve.cache_hits"),
		cacheMisses:       reg.Counter("serve.cache_misses"),
		storeServed:       reg.Counter("serve.store_served"),
		batches:           reg.Counter("serve.batches"),
		batchedJobs:       reg.Counter("serve.batched_jobs"),
		inferences:        reg.Counter("serve.inferences"),
		degraded:          reg.Counter("serve.degraded"),
		retries:           reg.Counter("serve.retries"),
		replicated:        reg.Counter("serve.replicated"),
		replicateRejected: reg.Counter("serve.replicate_rejected"),
		maxBatch:          reg.Gauge("serve.max_batch"),
		latency:           reg.Histogram("serve.latency"),
		queueWait:         reg.Histogram("serve.queue_wait"),
	}
}

func (m *metrics) observeBatch(n int) {
	m.batches.Inc()
	m.batchedJobs.Add(int64(n))
	m.maxBatch.SetMax(int64(n))
}

// Stats is a point-in-time snapshot of the service's counters, shaped for
// the /stats endpoint. It is the wire protocol's worker-stats message;
// the alias keeps in-repo call sites compiling while the authoritative
// definition lives in package wire.
type Stats = wire.Stats

// Stats returns a snapshot of the service's counters.
func (s *Service) Stats() Stats {
	m := s.m
	st := Stats{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		QueueDepth:        int(s.waiting.Load()),
		QueueCapacity:     s.cfg.QueueSize,
		Submitted:         m.submitted.Load(),
		Completed:         m.completed.Load(),
		Failed:            m.failed.Load(),
		Rejected:          m.rejected.Load(),
		CacheHits:         m.cacheHits.Load(),
		CacheMisses:       m.cacheMisses.Load(),
		Inferences:        m.inferences.Load(),
		Degraded:          m.degraded.Load(),
		Retries:           m.retries.Load(),
		Replicated:        m.replicated.Load(),
		ReplicateRejected: m.replicateRejected.Load(),
		Batches:           m.batches.Load(),
		BatchedJobs:       m.batchedJobs.Load(),
		MaxBatch:          m.maxBatch.Load(),
		P50Millis:         float64(m.latency.Percentile(0.50).Microseconds()) / 1000,
		P99Millis:         float64(m.latency.Percentile(0.99).Microseconds()) / 1000,
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.CacheEntries = ss.Entries
		st.CacheEvictions = ss.Evictions
		if s.cfg.StoreDir != "" {
			st.StoreEntries = ss.Entries
			st.StoreSegments = ss.Segments
			st.StoreHits = ss.Hits
			st.StoreMisses = ss.Misses
			st.StoreServed = m.storeServed.Load()
			st.StoreWrites = ss.Writes
			st.StoreCompactions = ss.Compactions
			st.StoreInvalidations = ss.Invalidations
			st.StoreEvictions = ss.Evictions
		}
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(st.BatchedJobs) / float64(st.Batches)
	}
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(lookups)
	}
	return st
}
