package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"oarsmt/internal/core"
	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
)

type answer struct {
	resp *Response
	err  error
}

// submitAsync submits in on its own goroutine and returns where the
// answer lands.
func submitAsync(ctx context.Context, s *Service, in *layout.Instance) <-chan answer {
	c := make(chan answer, 1)
	go func() {
		resp, err := s.Submit(ctx, in)
		c <- answer{resp, err}
	}()
	return c
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentMissesMatchSerialCore queues two distinct misses behind
// the gate, so on release both take a route slot and route at once
// through the shared selector. Both must finish with the serial
// core.Route cost, one inference each, and the wait must show on the
// serve.queue_wait histogram next to the serve.lanes gauge.
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
	s := newTestService(t, Config{Selector: sel, CacheSize: -1, gate: gate})
	answers := make([]<-chan answer, len(ins))
	for i, in := range ins {
		answers[i] = submitAsync(context.Background(), s, in)
	}
	waitFor(t, "misses to queue", func() bool { return s.Stats().QueueDepth == len(ins) })
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

// TestConcurrentDuplicateMissesAgree queues the 16 orientations of one
// layout and one other layout behind the gate. On release the
// orientations race for the route slots; each one that takes a slot after
// the first route stored its record replays that record instead of
// routing, so the layout costs at most one inference per slot. Every
// answer equals serial core.Route's cost up to float summation order, and
// once the layout is stored every orientation replays one cost bit
// pattern.
func TestConcurrentDuplicateMissesAgree(t *testing.T) {
	sel := tinySelector(t)
	in := serveInstance(t, 13, 6, 8, 2, 5)
	base, err := core.NewRouter(sel).Route(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	near := func(what string, cost float64) {
		t.Helper()
		if rel := math.Abs(cost-base.Tree.Cost) / base.Tree.Cost; rel > 1e-12 {
			t.Errorf("%s: cost %v, serial %v (rel err %v)", what, cost, base.Tree.Cost, rel)
		}
	}

	gate := make(chan struct{})
	s := newTestService(t, Config{Selector: sel, gate: gate})
	reqs := []*layout.Instance{serveInstance(t, 14, 6, 8, 2, 5)}
	for _, a := range grid.AllAugmentations() {
		reqs = append(reqs, augmentInstance(in, a))
	}
	answers := make([]<-chan answer, len(reqs))
	for i, r := range reqs {
		answers[i] = submitAsync(context.Background(), s, r)
	}
	waitFor(t, "misses to queue", func() bool { return s.Stats().QueueDepth == len(reqs) })
	close(gate)

	for i := range reqs {
		a := <-answers[i]
		if a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
		if i > 0 {
			near(fmt.Sprintf("orientation %+v", grid.AllAugmentations()[i-1]), a.resp.Cost)
		}
	}
	st := s.Stats()
	if maxInf := int64(1 + runtime.GOMAXPROCS(0)); st.Inferences < 2 || st.Inferences > maxInf {
		t.Errorf("inferences = %d, want 2..%d (one per distinct layout, at most one per slot)", st.Inferences, maxInf)
	}
	if st.Completed != int64(len(reqs)) || st.Batches != st.Inferences {
		t.Errorf("completed = %d, batches = %d; want %d and one route per inference", st.Completed, st.Batches, len(reqs))
	}

	var bits uint64
	for i, a := range grid.AllAugmentations() {
		resp, err := s.Submit(context.Background(), augmentInstance(in, a))
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Errorf("orientation %+v: not a cache hit once the layout is stored", a)
		}
		if i == 0 {
			bits = math.Float64bits(resp.Cost)
		} else if got := math.Float64bits(resp.Cost); got != bits {
			t.Errorf("orientation %+v: cost bits %#x, first orientation's %#x", a, got, bits)
		}
	}
}

// TestExpiredMissSpendsNoInference: a miss whose deadline passes before it
// holds a route slot (here during an injected admission delay, with a
// slot free) is answered with its timeout and never reaches the selector.
func TestExpiredMissSpendsNoInference(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	fault.Set("serve.enqueue", fault.Options{Mode: fault.Delay, Delay: 5 * time.Millisecond})
	s := newTestService(t, Config{})
	in := serveInstance(t, 83, 6, 6, 2, 5)
	const n = 8
	for range n {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := s.Submit(ctx, in)
		cancel()
		if !errors.Is(err, errs.ErrTimeout) {
			t.Fatalf("expired miss returned %v, want ErrTimeout", err)
		}
	}
	if st := s.Stats(); st.Inferences != 0 || st.Failed != n || st.Batches != 0 {
		t.Errorf("inferences=%d failed=%d batches=%d, want 0, %d, 0", st.Inferences, st.Failed, st.Batches, n)
	}
}
