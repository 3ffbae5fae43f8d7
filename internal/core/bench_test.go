package core

import (
	"context"
	"math/rand"
	"testing"

	"oarsmt/internal/fault"
	"oarsmt/internal/layout"
	"oarsmt/internal/models"
	"oarsmt/internal/nn"
	"oarsmt/internal/obs"
	"oarsmt/internal/selector"
)

func benchRouter(b *testing.B) (*Router, *layout.Instance) {
	b.Helper()
	sel, err := selector.NewRandom(rand.New(rand.NewSource(1)),
		nn.UNetConfig{InChannels: selector.NumFeatures, Base: 2, Depth: 1, Kernel: 3})
	if err != nil {
		b.Fatal(err)
	}
	in, err := layout.Random(rand.New(rand.NewSource(2)), layout.RandomSpec{
		H: 10, V: 10, MinM: 2, MaxM: 2,
		MinPins: 5, MaxPins: 5,
		MinObstacles: 8, MaxObstacles: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	return NewRouter(sel), in
}

// BenchmarkNormalRoute is the healthy-path baseline BenchmarkDegradedRoute
// is compared against in BENCH_micro.json.
func BenchmarkNormalRoute(b *testing.B) {
	r, in := benchRouter(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegradedRoute measures the degraded path end to end: selector
// inference fails at 100% and every route falls back to the plain OARMST.
// The degraded path must stay cheaper than the healthy one (it skips the
// network forward pass), so a service absorbing an inference outage does
// not also absorb a latency regression.
func BenchmarkDegradedRoute(b *testing.B) {
	fault.Reset()
	b.Cleanup(fault.Reset)
	fault.Set("selector.infer", fault.Options{Mode: fault.Error})
	r, in := benchRouter(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Route(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Degraded {
			b.Fatal("route did not degrade under 100% selector fault")
		}
	}
}

// BenchmarkProductionMiss routes the miss a serving daemon pays for a
// never-seen layout: the embedded model, and perfbench's miss-cold stream
// shape (16x16x4, 10 pins, 8–16 obstacles) at fixed seeds 1–16, one
// layout per op in turn. builds/op, pops/op and kept/op are the
// route.oarmst_builds, route.heap_pops and core.steiner_kept counts per
// route, taken over one untimed pass of the stream so they do not depend
// on b.N.
func BenchmarkProductionMiss(b *testing.B) {
	sel, err := models.New()
	if err != nil {
		b.Fatal(err)
	}
	r := NewRouter(sel)
	stream := make([]*layout.Instance, 16)
	for i := range stream {
		stream[i], err = layout.Random(rand.New(rand.NewSource(int64(i+1))), layout.RandomSpec{
			H: 16, V: 16, MinM: 4, MaxM: 4, MinPins: 10, MaxPins: 10,
			MinObstacles: 8, MaxObstacles: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	builds, pops := obs.Default.Counter("route.oarmst_builds"), obs.Default.Counter("route.heap_pops")
	b0, p0, k0 := builds.Load(), pops.Load(), mSteinerKept.Load()
	for _, in := range stream {
		if _, err := r.Route(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
	n := float64(len(stream))
	nBuilds := float64(builds.Load()-b0) / n
	nPops := float64(pops.Load()-p0) / n
	nKept := float64(mSteinerKept.Load()-k0) / n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(ctx, stream[i%len(stream)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nBuilds, "builds/op")
	b.ReportMetric(nPops, "pops/op")
	b.ReportMetric(nKept, "kept/op")
}
