package core

import (
	"context"
	"math/rand"
	"testing"

	"oarsmt/internal/fault"
	"oarsmt/internal/layout"
	"oarsmt/internal/nn"
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
