package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"oarsmt/internal/core"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/nn"
	"oarsmt/internal/route"
	"oarsmt/internal/selector"
)

func tinySelector(t *testing.T) *selector.Selector {
	t.Helper()
	s, err := selector.NewRandom(rand.New(rand.NewSource(1)),
		nn.UNetConfig{InChannels: selector.NumFeatures, Base: 2, Depth: 1, Kernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func plainTree(in *layout.Instance) (*route.Tree, error) {
	return core.PlainOARMST(context.Background(), in)
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Selector == nil {
		cfg.Selector = tinySelector(t)
	}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestParallelSubmitsMatchSerialCore is the service's central correctness
// claim, run under the race detector by make check: N concurrent requests
// over mixed layout sizes — with repeats, so batching, dedup and the cache
// all engage — must each return exactly the tree cost the serial
// internal/core router produces for that instance.
func TestParallelSubmitsMatchSerialCore(t *testing.T) {
	sel := tinySelector(t)

	// Mixed sizes so one drain holds several same-size groups.
	sizes := [][3]int{{8, 8, 2}, {6, 10, 2}, {5, 5, 3}}
	var ins []*layout.Instance
	var want []float64
	serial := core.NewRouter(sel)
	for i := 0; i < 12; i++ {
		sz := sizes[i%len(sizes)]
		in := serveInstance(t, int64(100+i), sz[0], sz[1], sz[2], 4+i%3)
		res, err := serial.Route(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
		want = append(want, res.Tree.Cost)
	}

	s := newTestService(t, Config{Selector: sel, QueueSize: 128, MaxBatch: 8})

	const repeats = 4
	var wg sync.WaitGroup
	errs := make([]error, len(ins)*repeats)
	got := make([]float64, len(ins)*repeats)
	for rep := 0; rep < repeats; rep++ {
		for i := range ins {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				resp, err := s.Submit(context.Background(), ins[i])
				if err != nil {
					errs[slot] = err
					return
				}
				got[slot] = resp.Cost
			}(rep*len(ins)+i, i)
		}
	}
	wg.Wait()

	for slot, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", slot, err)
		}
	}
	for slot, cost := range got {
		if want[slot%len(ins)] != cost {
			t.Errorf("instance %d: served cost %v, serial core cost %v (want bit-identical)",
				slot%len(ins), cost, want[slot%len(ins)])
		}
	}

	st := s.Stats()
	if st.Completed != int64(len(ins)*repeats) {
		t.Errorf("completed = %d, want %d", st.Completed, len(ins)*repeats)
	}
	if st.Failed != 0 || st.Rejected != 0 {
		t.Errorf("failed = %d rejected = %d, want 0", st.Failed, st.Rejected)
	}
	// Each distinct layout needs at most one inference (3 of the 36 repeat
	// submissions may race past the cache, but dedup inside a batch and
	// the cache bound the total well below one per request).
	if st.Inferences >= int64(len(ins)*repeats) {
		t.Errorf("inferences = %d for %d requests over %d layouts: batching/caching not engaging",
			st.Inferences, len(ins)*repeats, len(ins))
	}

	// Everything is routed now, so one more submission of any layout is a
	// deterministic cache hit (in-flight repeats above may instead have
	// been deduped inside a batch, which is not a cache hit).
	resp, err := s.Submit(context.Background(), ins[0])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("post-drain repeat submission missed the cache")
	}
	if resp.Cost != want[0] {
		t.Errorf("cached cost %v, serial core cost %v", resp.Cost, want[0])
	}
}

// TestCacheHitServedWithoutReinference pins the cache acceptance
// criterion: a repeat submission is answered from the cache with zero
// additional selector inferences, bit-identical in cost.
func TestCacheHitServedWithoutReinference(t *testing.T) {
	s := newTestService(t, Config{Selector: tinySelector(t)})
	in := serveInstance(t, 7, 8, 8, 2, 5)

	first, err := s.Submit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	infAfterFirst := s.Stats().Inferences

	second, err := s.Submit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("repeat submission missed the cache")
	}
	if second.Cost != first.Cost {
		t.Fatalf("cached cost %v != first cost %v", second.Cost, first.Cost)
	}
	if got := s.Stats().Inferences; got != infAfterFirst {
		t.Fatalf("cache hit spent %d extra inferences", got-infAfterFirst)
	}
}

// TestCacheHitAcrossOrientations exercises augmentation normalization:
// after routing a layout once, every one of its 16 orientations is a
// cache hit, and the served cost matches the serial cost of that
// orientation up to float summation order.
func TestCacheHitAcrossOrientations(t *testing.T) {
	sel := tinySelector(t)
	in := serveInstance(t, 13, 6, 8, 2, 5)

	serial := core.NewRouter(sel)
	base, err := serial.Route(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	s := newTestService(t, Config{Selector: sel})
	if _, err := s.Submit(context.Background(), in); err != nil {
		t.Fatal(err)
	}

	for _, a := range grid.AllAugmentations() {
		rotated := augmentInstance(in, a)
		resp, err := s.Submit(context.Background(), rotated)
		if err != nil {
			t.Fatalf("orientation %+v: %v", a, err)
		}
		if !resp.CacheHit {
			t.Errorf("orientation %+v missed the cache", a)
		}
		if rel := math.Abs(resp.Cost-base.Tree.Cost) / base.Tree.Cost; rel > 1e-12 {
			t.Errorf("orientation %+v: cost %v, base %v (rel err %v)", a, resp.Cost, base.Tree.Cost, rel)
		}
	}
}

// TestQueueFullRejects holds the scheduler on the test gate so the queue
// deterministically fills: the overflowing submission must fail fast with
// ErrQueueFull.
func TestQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	s := newTestService(t, Config{Selector: tinySelector(t), QueueSize: 1, CacheSize: -1, gate: gate})

	inA := serveInstance(t, 31, 5, 5, 2, 4)
	inB := serveInstance(t, 32, 5, 5, 2, 4)

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), inA)
		done <- err
	}()
	// Wait until A occupies the queue slot (scheduler is gated).
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Submit(context.Background(), inB); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission returned %v, want ErrQueueFull", err)
	}
	if s.Stats().Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", s.Stats().Rejected)
	}

	close(gate) // release the scheduler; A must now complete
	if err := <-done; err != nil {
		t.Fatalf("gated job failed after release: %v", err)
	}
}

// TestGracefulDrain checks Close semantics: queued jobs are still
// answered, and later submissions are refused with ErrClosed.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	sel := tinySelector(t)
	s, err := NewService(Config{Selector: sel, QueueSize: 8, gate: gate})
	if err != nil {
		t.Fatal(err)
	}

	const n = 3
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		in := serveInstance(t, int64(40+i), 5, 5, 2, 4)
		go func() {
			_, err := s.Submit(context.Background(), in)
			done <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs queued", s.Stats().QueueDepth, n)
		}
		time.Sleep(time.Millisecond)
	}

	close(gate)
	s.Close() // must drain the n queued jobs, then stop the scheduler

	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Errorf("queued job failed during drain: %v", err)
		}
	}
	if !s.Closed() {
		t.Error("Closed() = false after Close")
	}
	if _, err := s.Submit(context.Background(), serveInstance(t, 50, 5, 5, 2, 4)); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submission returned %v, want ErrClosed", err)
	}
	s.Close() // second Close must be a no-op, not a panic
}

// TestSubmitDeadline checks request-level cancellation: an expired
// context is reported as such, not as a routing failure.
func TestSubmitDeadline(t *testing.T) {
	s := newTestService(t, Config{Selector: tinySelector(t)})
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := s.Submit(ctx, serveInstance(t, 60, 8, 8, 2, 5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline submission returned %v, want DeadlineExceeded", err)
	}
}

// TestVolumeBudget checks the pre-queue size guard.
func TestVolumeBudget(t *testing.T) {
	s := newTestService(t, Config{Selector: tinySelector(t), MaxVolume: 10})
	if _, err := s.Submit(context.Background(), serveInstance(t, 61, 8, 8, 2, 4)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized submission returned %v, want ErrTooLarge", err)
	}
}
