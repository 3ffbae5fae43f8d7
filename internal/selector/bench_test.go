package selector

import (
	"math/rand"
	"testing"

	"oarsmt/internal/grid"
	"oarsmt/internal/nn"
)

func benchSelector(b *testing.B) *Selector {
	b.Helper()
	s, err := NewRandom(rand.New(rand.NewSource(1)),
		nn.UNetConfig{InChannels: NumFeatures, Base: 6, Depth: 2, Kernel: 3})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchGraph(b *testing.B, h, v, m int) (*grid.Graph, []grid.VertexID) {
	b.Helper()
	g, err := grid.NewUniform(h, v, m, 3)
	if err != nil {
		b.Fatal(err)
	}
	pins := []grid.VertexID{
		g.Index(0, 0, 0),
		g.Index(h-1, v-1, m-1),
		g.Index(h/2, v/2, 0),
		g.Index(h/3, 2*v/3, m/2),
	}
	return g, pins
}

func BenchmarkEncode32x32x4(b *testing.B) {
	g, pins := benchGraph(b, 32, 32, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(g, pins)
	}
}

func BenchmarkInference16x16x4(b *testing.B) {
	s := benchSelector(b)
	g, pins := benchGraph(b, 16, 16, 4)
	// Warm the inference arenas so allocs/op is the steady state at any
	// -benchtime.
	s.FSP(g, pins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FSP(g, pins)
	}
}

func BenchmarkInference32x32x4(b *testing.B) {
	s := benchSelector(b)
	g, pins := benchGraph(b, 32, 32, 4)
	s.FSP(g, pins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FSP(g, pins)
	}
}

func BenchmarkInference64x64x4(b *testing.B) {
	s := benchSelector(b)
	g, pins := benchGraph(b, 64, 64, 4)
	s.FSP(g, pins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FSP(g, pins)
	}
}

func BenchmarkSelectSteinerPoints(b *testing.B) {
	s := benchSelector(b)
	g, pins := benchGraph(b, 32, 32, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SelectSteinerPoints(g, pins)
	}
}
