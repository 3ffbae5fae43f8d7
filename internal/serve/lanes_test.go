package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"oarsmt/internal/core"
	"oarsmt/internal/layout"
)

// TestConcurrentMissesMatchSerialCore queues two distinct misses behind
// the gate with MaxBatch 1, so on release each lane takes one and both
// route at once through the shared selector. Both must finish with the
// serial core.Route cost, one inference each, and the wait must show on
// the serve.queue_wait histogram next to the serve.lanes gauge.
func TestConcurrentMissesMatchSerialCore(t *testing.T) {
	sel := tinySelector(t)
	ins := []*layout.Instance{
		serveInstance(t, 71, 8, 8, 2, 6),
		serveInstance(t, 72, 8, 8, 2, 6),
	}
	serial := core.NewRouter(sel)
	want := make([]float64, len(ins))
	for i, in := range ins {
		res, err := serial.Route(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Tree.Cost
	}

	gate := make(chan struct{})
	s := newTestService(t, Config{Selector: sel, MaxBatch: 1, CacheSize: -1, gate: gate})
	type answer struct {
		resp *Response
		err  error
	}
	answers := make([]chan answer, len(ins))
	for i, in := range ins {
		answers[i] = make(chan answer, 1)
		go func() {
			resp, err := s.Submit(context.Background(), in)
			answers[i] <- answer{resp, err}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth < len(ins) {
		if time.Now().After(deadline) {
			t.Fatal("misses never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	for i := range ins {
		a := <-answers[i]
		if a.err != nil {
			t.Fatalf("miss %d: %v", i, a.err)
		}
		if a.resp.Cost != want[i] {
			t.Errorf("miss %d: served cost %v, serial core cost %v", i, a.resp.Cost, want[i])
		}
		if a.resp.CacheHit || a.resp.BatchSize != 1 {
			t.Errorf("miss %d: cacheHit=%v batchSize=%d, want a lone miss", i, a.resp.CacheHit, a.resp.BatchSize)
		}
	}
	if st := s.Stats(); st.Inferences != int64(len(ins)) || st.Completed != int64(len(ins)) {
		t.Errorf("inferences = %d, completed = %d, want %d each", st.Inferences, st.Completed, len(ins))
	}
	snap := s.Registry().Snapshot()
	if got, want := snap.Gauges["serve.lanes"], float64(runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("serve.lanes gauge = %v, want GOMAXPROCS = %v", got, want)
	}
	if qw := snap.Histograms["serve.queue_wait"]; qw.Count != int64(len(ins)) || qw.SumNS <= 0 {
		t.Errorf("serve.queue_wait count = %d sum = %dns, want %d positive waits", qw.Count, qw.SumNS, len(ins))
	}
}
