package serve

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/nn"
	"oarsmt/internal/selector"
)

// TestStoreWarmRestartBitIdentical is the route store's acceptance
// criterion: after the process "dies" (service closed, a new one opened
// over the same directory with the same model), every previously-routed
// layout is served from the disk tier bit-identically — same cost, same
// edges — with zero selector inferences, pinned by the obs counters.
func TestStoreWarmRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cold := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir})

	type routed struct {
		in    *layout.Instance
		cost  float64
		edges [][2]Coord3
	}
	var want []routed
	for i := 0; i < 6; i++ {
		in := serveInstance(t, int64(200+i), 6+i%3, 8, 2, 4+i%2)
		resp, err := cold.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StoreHit {
			t.Fatal("first routing of a layout reported a store hit")
		}
		want = append(want, routed{in: in, cost: resp.Cost, edges: resp.Edges})
	}
	cold.Close() // flushes pending store writes; stands in for the old process exiting
	if st := cold.Stats(); st.StoreWrites == 0 {
		t.Fatalf("no store writes recorded: %+v", st)
	}

	// "Restart": a brand-new service over the same directory, with a
	// selector rebuilt from the same seed — exactly what a daemon restart
	// loading the same model file does. The memory cache is disabled so
	// every answer must come off disk.
	warm := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir, CacheSize: -1})
	if st := warm.Stats(); st.StoreEntries != len(want) {
		t.Fatalf("warm store loaded %d entries, want %d", st.StoreEntries, len(want))
	}
	for i, w := range want {
		resp, err := warm.Submit(context.Background(), w.in)
		if err != nil {
			t.Fatalf("layout %d after restart: %v", i, err)
		}
		if !resp.StoreHit || !resp.CacheHit {
			t.Fatalf("layout %d: StoreHit=%v CacheHit=%v, want both", i, resp.StoreHit, resp.CacheHit)
		}
		if resp.Cost != w.cost {
			t.Errorf("layout %d: warm cost %v != cold cost %v", i, resp.Cost, w.cost)
		}
		if !reflect.DeepEqual(resp.Edges, w.edges) {
			t.Errorf("layout %d: warm tree differs from cold tree", i)
		}
	}
	st := warm.Stats()
	if st.Inferences != 0 {
		t.Fatalf("warm restart spent %d selector inferences, want 0", st.Inferences)
	}
	if st.StoreServed != int64(len(want)) {
		t.Errorf("storeServed = %d, want %d", st.StoreServed, len(want))
	}
}

// TestStoreFingerprintSwapInvalidates pins the staleness guarantee: a
// restart with a *different* selector (a retrained model) invalidates 100%
// of the stored routes — nothing is served from disk, everything is routed
// fresh with real inferences.
func TestStoreFingerprintSwapInvalidates(t *testing.T) {
	dir := t.TempDir()
	cold := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir})
	const n = 4
	ins := make([]*layout.Instance, n)
	for i := range ins {
		ins[i] = serveInstance(t, int64(300+i), 7, 7, 2, 5)
		if _, err := cold.Submit(context.Background(), ins[i]); err != nil {
			t.Fatal(err)
		}
	}
	cold.Close()

	warm := newTestService(t, Config{Selector: otherSelector(t), StoreDir: dir})
	st := warm.Stats()
	if st.StoreEntries != 0 {
		t.Fatalf("retrained-model restart kept %d stale entries", st.StoreEntries)
	}
	if st.StoreInvalidations != n {
		t.Fatalf("invalidations = %d, want %d (100%%)", st.StoreInvalidations, n)
	}
	for i, in := range ins {
		resp, err := warm.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StoreHit {
			t.Fatalf("layout %d served a stale route after a model swap", i)
		}
	}
	if warm.Stats().Inferences == 0 {
		t.Fatal("retrained-model restart spent no inferences: stale routes served")
	}
}

// TestStoreHitAcrossOrientationsAfterRestart: the disk tier is keyed by the
// augmentation-normalized hash, so after a restart every one of the 16
// orientations of a previously-routed layout is a store hit.
func TestStoreHitAcrossOrientationsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	in := serveInstance(t, 77, 6, 8, 2, 5)

	cold := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir})
	if _, err := cold.Submit(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	cold.Close()

	warm := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir, CacheSize: -1})
	for _, a := range grid.AllAugmentations() {
		resp, err := warm.Submit(context.Background(), augmentInstance(in, a))
		if err != nil {
			t.Fatalf("orientation %+v: %v", a, err)
		}
		if !resp.StoreHit {
			t.Errorf("orientation %+v missed the store after restart", a)
		}
	}
	if got := warm.Stats().Inferences; got != 0 {
		t.Fatalf("warm orientations spent %d inferences, want 0", got)
	}
}

// TestCacheEvictionCounter: the one cache tier's LRU bound evicts the
// coldest layouts, and the evictions and the cache size surface on /stats
// and on the store.evictions / serve.cache.size instruments.
func TestCacheEvictionCounter(t *testing.T) {
	s := newTestService(t, Config{Selector: tinySelector(t), CacheSize: 2})
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(context.Background(), serveInstance(t, int64(400+i), 6, 6, 2, 4)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheEvictions != 3 { // 5 distinct layouts through a 2-entry LRU
		t.Errorf("cacheEvictions = %d, want 3", st.CacheEvictions)
	}
	if st.CacheEntries != 2 {
		t.Errorf("cacheEntries = %d, want 2", st.CacheEntries)
	}
	snap := s.Registry().Snapshot()
	if got := snap.Gauges["serve.cache.size"]; got != 2 {
		t.Errorf("serve.cache.size gauge = %v, want 2", got)
	}
	if got := snap.Counters["store.evictions"]; got != 3 {
		t.Errorf("store.evictions counter = %v, want 3", got)
	}
	if _, ok := snap.Counters["serve.cache.evictions"]; ok {
		t.Error("serve.cache.evictions still registered beside store.evictions")
	}
}

// TestStoreWarmRestartCountsHits: every request a warm-restarted daemon
// answers from disk is a cache hit in the counters, so its hit rate reads
// 1 rather than 0.
func TestStoreWarmRestartCountsHits(t *testing.T) {
	dir := t.TempDir()
	cold := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir})
	ins := make([]*layout.Instance, 4)
	for i := range ins {
		ins[i] = serveInstance(t, int64(500+i), 6, 7, 2, 4)
		if _, err := cold.Submit(context.Background(), ins[i]); err != nil {
			t.Fatal(err)
		}
	}
	cold.Close()

	warm := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir})
	for _, in := range ins {
		if _, err := warm.Submit(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	st := warm.Stats()
	if st.CacheHits != int64(len(ins)) || st.CacheMisses != 0 {
		t.Errorf("cacheHits/misses = %d/%d, want %d/0", st.CacheHits, st.CacheMisses, len(ins))
	}
	if st.CacheHitRate != 1 {
		t.Errorf("cacheHitRate = %v, want 1", st.CacheHitRate)
	}
	if st.StoreServed != int64(len(ins)) {
		t.Errorf("storeServed = %d, want %d", st.StoreServed, len(ins))
	}
}

// TestMemoryAndDiskCacheAgree is the differential test of the one cache
// tier: a scripted sequence — 20 layouts in all 16 orientations, repeats,
// evictions through an 8-entry bound and, for the disk-backed service, a
// restart — gives identical responses from a memory-only service and a
// disk-backed one. Only StoreHit and the timings may differ.
func TestMemoryAndDiskCacheAgree(t *testing.T) {
	const layouts, bound = 20, 8
	ins := make([]*layout.Instance, layouts)
	for i := range ins {
		ins[i] = serveInstance(t, int64(600+i), 6, 7, 2, 3+i%3)
	}
	dir := t.TempDir()
	mem := newTestService(t, Config{Selector: tinySelector(t), CacheSize: bound})
	disk := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir, StoreMaxEntries: bound})

	step := 0
	submit := func(in *layout.Instance) {
		t.Helper()
		step++
		a, err := mem.Submit(context.Background(), in)
		if err != nil {
			t.Fatalf("step %d: memory-only: %v", step, err)
		}
		b, err := disk.Submit(context.Background(), in)
		if err != nil {
			t.Fatalf("step %d: disk-backed: %v", step, err)
		}
		if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || a.CacheHit != b.CacheHit ||
			!reflect.DeepEqual(a.Edges, b.Edges) || !reflect.DeepEqual(a.SteinerPoints, b.SteinerPoints) {
			t.Fatalf("step %d: memory-only cost=%v hit=%v, disk-backed cost=%v hit=%v, or trees differ",
				step, a.Cost, a.CacheHit, b.Cost, b.CacheHit)
		}
		if b.StoreHit != b.CacheHit || a.StoreHit {
			t.Fatalf("step %d: StoreHit memory-only=%v disk-backed=%v, CacheHit %v",
				step, a.StoreHit, b.StoreHit, b.CacheHit)
		}
	}
	allOrientations := func(in *layout.Instance) {
		for _, a := range grid.AllAugmentations() {
			submit(augmentInstance(in, a))
		}
	}
	touch := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			submit(ins[i])
		}
	}

	for i := 0; i < bound; i++ {
		allOrientations(ins[i])
	}
	touch(0, bound)

	// Restart the disk-backed service. Reloading orders records by
	// segment and key, so one touch of every layout restores the same
	// recency order in both before any eviction.
	disk.Close()
	disk = newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir, StoreMaxEntries: bound})
	touch(0, bound)

	for i := bound; i < layouts; i++ {
		allOrientations(ins[i]) // every new layout evicts the coldest
	}
	touch(0, layouts) // evicted layouts miss and are re-routed
	touch(0, layouts)

	ms, ds := mem.Stats(), disk.Stats()
	if ms.CacheEvictions == 0 || ms.CacheEntries != bound || ds.CacheEntries != bound {
		t.Errorf("memory-only evictions=%d entries=%d, disk-backed entries=%d; want evictions and %d entries",
			ms.CacheEvictions, ms.CacheEntries, ds.CacheEntries, bound)
	}
}

// otherSelector returns a selector with different weights than
// tinySelector's (a stand-in for a retrained model).
func otherSelector(t *testing.T) *selector.Selector {
	t.Helper()
	s, err := selector.NewRandom(rand.New(rand.NewSource(999)),
		nn.UNetConfig{InChannels: selector.NumFeatures, Base: 2, Depth: 1, Kernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}
