package serve

import (
	"context"
	"math/rand"
	"testing"

	"oarsmt/internal/layout"
	"oarsmt/internal/nn"
	"oarsmt/internal/selector"
)

// The Store* benchmarks quantify the warm-restart value proposition for
// BENCH_micro.json: a cold route pays inference + construction, a warm
// memory hit pays a map lookup + tree replay, and a warm disk hit (fresh
// process, store only) pays the same replay after one index lookup.

func benchSelector(b *testing.B) *selector.Selector {
	b.Helper()
	s, err := selector.NewRandom(rand.New(rand.NewSource(1)),
		nn.UNetConfig{InChannels: selector.NumFeatures, Base: 2, Depth: 1, Kernel: 3})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchInstance(b *testing.B, seed int64) *layout.Instance {
	b.Helper()
	in, err := layout.Random(rand.New(rand.NewSource(seed)), layout.RandomSpec{
		H: 8, V: 8, MinM: 2, MaxM: 2,
		MinPins: 5, MaxPins: 5,
		MinObstacles: 4, MaxObstacles: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func benchService(b *testing.B, cfg Config) *Service {
	b.Helper()
	if cfg.Selector == nil {
		cfg.Selector = benchSelector(b)
	}
	s, err := NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// BenchmarkStoreColdRoute is the baseline: every request misses both tiers
// and runs inference + OARMST construction.
func BenchmarkStoreColdRoute(b *testing.B) {
	s := benchService(b, Config{CacheSize: -1})
	in := benchInstance(b, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreWarmMemoryRoute serves every request from the memory LRU.
func BenchmarkStoreWarmMemoryRoute(b *testing.B) {
	s := benchService(b, Config{})
	in := benchInstance(b, 1)
	ctx := context.Background()
	if _, err := s.Submit(ctx, in); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Submit(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.CacheHit {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkStoreWarmDiskRoute serves every request from the disk tier of a
// freshly restarted service: the memory LRU is disabled, so each request
// pays the store lookup + canonical replay — the steady-state latency of a
// layout a previous process routed.
func BenchmarkStoreWarmDiskRoute(b *testing.B) {
	dir := b.TempDir()
	sel := benchSelector(b)
	cold := benchService(b, Config{Selector: sel, StoreDir: dir})
	in := benchInstance(b, 1)
	ctx := context.Background()
	if _, err := cold.Submit(ctx, in); err != nil {
		b.Fatal(err)
	}
	cold.Close()

	warm := benchService(b, Config{Selector: sel, StoreDir: dir, CacheSize: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := warm.Submit(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.StoreHit {
			b.Fatal("expected a store hit")
		}
	}
}
