// Package store is the content-addressed route cache behind
// internal/serve: the one tier every served hit comes from. With a
// directory it is also persistent, so a restarted daemon serves
// previously-routed layouts without re-running the selector; without one
// it is a memory-only LRU with the same Get/Put/Drop behaviour and
// instruments.
//
// Layout of the store: an in-memory index (key → canonical-space Record,
// kept in recency order) over append-only segment files on disk. Every
// segment is an internal/ckpt frame — magic, version, length, SHA-256
// trailer, written temp+fsync+rename — holding a batch of records under a
// deterministic binary codec (segment.go), so a torn or bit-flipped
// segment is detected on load and skipped, never decoded into a wrong
// route. Keys are the augmentation-normalized canonical layout hashes of
// internal/serve, so the store is content-addressed: any of the 16
// symmetric orientations of a layout resolves to the same record.
//
// Writes are buffered: Put admits a record to the index immediately and
// queues it for the background flusher, which lands pending batches as new
// segments and, when the segment count passes a threshold, compacts —
// rewriting the live index (sorted by key, so compacted bytes are
// reproducible) into one segment and deleting the rest. An LRU-derived
// admission policy bounds the index at MaxEntries: Get/Put refresh
// recency, overflow evicts the coldest record, and the next compaction
// drops evicted records from disk, bounding disk use too.
//
// Every segment carries the selector fingerprint its records were routed
// with (selector.Fingerprint, the canonical Params()-order weight hash).
// Opening the store under a different fingerprint invalidates every
// mismatched record at load — a retrained model can never serve a stale
// route. Validation of individual records against a requesting layout is
// the caller's job (internal/serve replays records through its
// treeFromRecord Validate path and calls Drop on failures), so a hash
// collision degrades to a miss.
//
// The store never reads the wall clock on the data path — segment bytes
// are a pure function of the records — and only stamps compaction metrics
// through an injectable clock.
package store

import (
	"container/list"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"oarsmt/internal/obs"
)

// Options parameterises Open.
type Options struct {
	// Dir is the segment directory, created if needed. Empty means a
	// memory-only store: no files, no flusher, nothing queued for writing.
	Dir string
	// Fingerprint is the serving selector's weight hash; records stored
	// under any other fingerprint are invalidated at Open.
	Fingerprint Fingerprint
	// MaxEntries bounds the live index (and, after compaction, disk use);
	// <= 0 means 4096.
	MaxEntries int
	// FlushEvery is how many pending records trigger a background segment
	// write; <= 0 means 32. Flush and Close land partial batches.
	FlushEvery int
	// CompactAfter is the segment-file count above which the background
	// flusher compacts; <= 0 means 8.
	CompactAfter int
	// Registry receives the store's metrics (store.hits, store.misses,
	// store.writes, store.compactions, store.invalidations, ...); nil
	// means a private registry.
	Registry *obs.Registry

	// now supplies the compaction metric timestamps, injectable so tests
	// never read the wall clock; nil means time.Now-based nanoseconds.
	now func() int64
}

func (o Options) withDefaults() Options {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 4096
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 32
	}
	if o.CompactAfter <= 0 {
		o.CompactAfter = 8
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.now == nil {
		o.now = func() int64 { return time.Now().UnixNano() } //oarsmt:allow nowallclock(compaction timestamps feed metrics only, never stored bytes)
	}
	return o
}

// Store is the persistent route store. All methods are safe for concurrent
// use. Create one with Open, shut it down with Close.
type Store struct {
	opts Options

	mu      sync.Mutex
	items   map[Key]*list.Element // element value: *Record
	ll      *list.List            // front = most recently used
	pending []Key                 // insertion-ordered keys awaiting a segment write
	queued  map[Key]bool          // pending membership
	segs    []segEntry            // live segment files, ascending seq
	nextSeq int
	closed  bool

	kick     chan struct{}
	stop     chan struct{}
	loopDone chan struct{}

	hits          *obs.Counter
	misses        *obs.Counter
	writes        *obs.Counter
	writeErrors   *obs.Counter
	compactions   *obs.Counter
	invalidations *obs.Counter
	evictions     *obs.Counter
	corruptSegs   *obs.Counter
	compactLat    *obs.Histogram
	lastCompact   *obs.FloatGauge
}

// Open loads (or creates) the store in opts.Dir: segments are replayed
// oldest-first so newer records win, corrupt segments are skipped, and
// records stored under a different selector fingerprint are invalidated.
// When the load left garbage behind — corrupt segments, invalidated
// records, or more segments than CompactAfter — the directory is compacted
// before Open returns, so a model swap immediately reclaims the disk.
// An empty opts.Dir opens an empty memory-only store.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		opts:     opts,
		items:    make(map[Key]*list.Element),
		ll:       list.New(),
		queued:   make(map[Key]bool),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	s.register(opts.Registry)
	if opts.Dir == "" {
		close(s.loopDone) // no flusher for Close to join
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}

	entries, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	dirty := false
	for _, e := range entries {
		if e.seq >= s.nextSeq {
			s.nextSeq = e.seq + 1
		}
		payload, err := readSegmentFile(e.path)
		if err != nil {
			// Torn write or bit rot: the frame did not validate. Skip the
			// whole segment — a later compaction deletes the file.
			s.corruptSegs.Inc()
			dirty = true
			continue
		}
		fp, recs, err := decodeSegment(payload)
		if err != nil {
			s.corruptSegs.Inc()
			dirty = true
			continue
		}
		if fp != opts.Fingerprint {
			// A different selector routed these records; every one is stale.
			s.invalidations.Add(int64(len(recs)))
			dirty = true
			continue
		}
		for _, r := range recs {
			s.insertLocked(r)
		}
		s.segs = append(s.segs, e)
	}
	if dirty || len(s.segs) > opts.CompactAfter {
		if err := s.compactLocked(); err != nil {
			return nil, fmt.Errorf("store: compact %s: %w", opts.Dir, err)
		}
	}
	//oarsmt:allow rawgo(store background flusher/compactor: keeps segment fsyncs off the routing hot path; joined by Close)
	go s.flushLoop()
	return s, nil
}

// register resolves the store's instruments on the registry.
func (s *Store) register(reg *obs.Registry) {
	s.hits = reg.Counter("store.hits")
	s.misses = reg.Counter("store.misses")
	s.writes = reg.Counter("store.writes")
	s.writeErrors = reg.Counter("store.write_errors")
	s.compactions = reg.Counter("store.compactions")
	s.invalidations = reg.Counter("store.invalidations")
	s.evictions = reg.Counter("store.evictions")
	s.corruptSegs = reg.Counter("store.corrupt_segments")
	s.compactLat = reg.Histogram("store.compact_latency")
	s.lastCompact = reg.FloatGauge("store.last_compact_unix_nanos")
	reg.GaugeFunc("store.entries", func() float64 { return float64(s.Len()) })
	reg.GaugeFunc("store.segments", func() float64 { return float64(s.Segments()) })
	reg.GaugeFunc("store.pending_writes", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.pending))
	})
}

// Get returns the record stored under key, refreshing its recency. The
// returned record is shared: callers must not mutate it.
func (s *Store) Get(key Key) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses.Inc()
		return nil, false
	}
	s.ll.MoveToFront(el)
	s.hits.Inc()
	return el.Value.(*Record), true
}

// Put admits a record to the index and queues it for the next background
// segment write. A record beyond MaxEntries evicts the coldest entry. Puts
// on a closed store are dropped.
func (s *Store) Put(r *Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.insertLocked(r)
	if s.opts.Dir == "" {
		return
	}
	if !s.queued[r.Key] {
		s.queued[r.Key] = true
		s.pending = append(s.pending, r.Key)
	}
	if len(s.pending) >= s.opts.FlushEvery {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

// Drop removes a record that failed the caller's validation (a hash
// collision, or a record inconsistent with the requesting layout), counting
// it as an invalidation so poisoned records never serve twice.
func (s *Store) Drop(key Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.removeLocked(el)
		s.invalidations.Inc()
	}
}

// insertLocked upserts the record and applies the admission bound.
func (s *Store) insertLocked(r *Record) {
	if el, ok := s.items[r.Key]; ok {
		s.ll.MoveToFront(el)
		el.Value = r
		return
	}
	s.items[r.Key] = s.ll.PushFront(r)
	for s.ll.Len() > s.opts.MaxEntries {
		s.removeLocked(s.ll.Back())
		s.evictions.Inc()
	}
}

func (s *Store) removeLocked(el *list.Element) {
	r := el.Value.(*Record)
	s.ll.Remove(el)
	delete(s.items, r.Key)
	if s.queued[r.Key] {
		delete(s.queued, r.Key)
		// The key stays in the pending slice; flushLocked skips keys no
		// longer queued, so an evicted record is never written out.
	}
}

// Flush synchronously writes the pending batch (if any) as a new segment.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

// Compact synchronously rewrites the live index into a single segment and
// deletes every other segment file, dropping evicted and superseded
// records from disk.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

// Close stops the background flusher and lands any pending records in a
// final segment. Safe to call more than once.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.loopDone
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// Len returns the live record count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Segments returns the live segment-file count.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries       int   `json:"entries"`
	Segments      int   `json:"segments"`
	PendingWrites int   `json:"pendingWrites"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Writes        int64 `json:"writes"`
	WriteErrors   int64 `json:"writeErrors"`
	Compactions   int64 `json:"compactions"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	CorruptSegs   int64 `json:"corruptSegments"`
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, segs, pend := s.ll.Len(), len(s.segs), len(s.pending)
	s.mu.Unlock()
	return Stats{
		Entries:       entries,
		Segments:      segs,
		PendingWrites: pend,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Writes:        s.writes.Load(),
		WriteErrors:   s.writeErrors.Load(),
		Compactions:   s.compactions.Load(),
		Invalidations: s.invalidations.Load(),
		Evictions:     s.evictions.Load(),
		CorruptSegs:   s.corruptSegs.Load(),
	}
}

// flushLoop is the background writer: it lands pending batches as segments
// when Put signals a full batch, compacting when the segment count passes
// the threshold. Write errors are counted, not fatal — the store is a
// cache, and a failed flush only costs warm restarts, never correctness.
func (s *Store) flushLoop() {
	defer close(s.loopDone)
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
			s.mu.Lock()
			// Near the segment bound, compact instead of flushing: the
			// compaction lands the pending batch too, so the directory never
			// needs a flush-then-compact double write.
			var err error
			if len(s.segs) >= s.opts.CompactAfter {
				err = s.compactLocked()
			} else {
				err = s.flushLocked()
			}
			if err != nil {
				s.writeErrors.Inc()
			}
			s.mu.Unlock()
		}
	}
}

// flushLocked writes the pending records (those still live in the index)
// as one new segment, sorted by key so segment bytes are deterministic.
func (s *Store) flushLocked() error {
	if len(s.pending) == 0 { // always so for a memory-only store
		return nil
	}
	recs := make([]*Record, 0, len(s.pending))
	for _, k := range s.pending {
		if !s.queued[k] {
			continue // evicted or dropped while pending
		}
		if el, ok := s.items[k]; ok {
			recs = append(recs, el.Value.(*Record))
		}
	}
	s.pending = s.pending[:0]
	clear(s.queued)
	if len(recs) == 0 {
		return nil
	}
	sort.Slice(recs, func(i, j int) bool { return lessKey(recs[i].Key, recs[j].Key) })
	seq := s.nextSeq
	path, err := writeSegmentFile(s.opts.Dir, seq, encodeSegment(s.opts.Fingerprint, recs))
	if err != nil {
		return err
	}
	s.nextSeq = seq + 1
	s.segs = append(s.segs, segEntry{seq: seq, path: path})
	s.writes.Add(int64(len(recs)))
	return nil
}

// compactLocked rewrites the live index into one fresh segment and deletes
// every older segment file (corrupt and superseded ones included). Pending
// records are part of the index, so a compaction also lands (and counts)
// the unflushed batch.
func (s *Store) compactLocked() error {
	if s.opts.Dir == "" {
		return nil
	}
	start := s.opts.now()
	landed := 0
	for _, k := range s.pending {
		if s.queued[k] {
			landed++
		}
	}
	recs := make([]*Record, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		recs = append(recs, el.Value.(*Record))
	}
	sort.Slice(recs, func(i, j int) bool { return lessKey(recs[i].Key, recs[j].Key) })

	seq := s.nextSeq
	var kept []segEntry
	if len(recs) > 0 {
		path, err := writeSegmentFile(s.opts.Dir, seq, encodeSegment(s.opts.Fingerprint, recs))
		if err != nil {
			return err
		}
		s.nextSeq = seq + 1
		kept = []segEntry{{seq: seq, path: path}}
	}
	// Delete everything that is not the compacted segment, including
	// corrupt or foreign-fingerprint files skipped at Open.
	old, err := listSegments(s.opts.Dir)
	if err != nil {
		return err
	}
	for _, e := range old {
		if len(kept) == 1 && e.seq == kept[0].seq {
			continue
		}
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	s.segs = kept
	s.pending = s.pending[:0]
	clear(s.queued)
	s.writes.Add(int64(landed))
	s.compactions.Inc()
	end := s.opts.now()
	s.compactLat.Observe(time.Duration(end - start))
	s.lastCompact.Set(float64(end))
	return nil
}

func lessKey(a, b Key) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
