package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
)

// TestServeDegradesUnderSelectorFault is the serving acceptance test: with
// selector.infer failing at 100% (past the retry budget), every request is
// still answered with a valid plain-OARMST route flagged degraded:true,
// the serve.degraded counter ticks, the daemon never crashes — and when
// the fault clears, responses return to normal inference (the degraded
// answers must not have poisoned the cache).
func TestServeDegradesUnderSelectorFault(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	var slept []time.Duration
	s := newTestService(t, Config{
		sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	in := serveInstance(t, 42, 6, 6, 2, 5)

	fault.Set("selector.infer", fault.Options{Mode: fault.Error})
	resp, err := s.Submit(context.Background(), in)
	if err != nil {
		t.Fatalf("submit under 100%% selector fault failed: %v", err)
	}
	if !resp.Degraded {
		t.Error("response not flagged degraded")
	}
	if resp.UsedSteiner || len(resp.SteinerPoints) != 0 {
		t.Errorf("degraded response claims Steiner points: %+v", resp)
	}
	if resp.Cost <= 0 || resp.NumEdges == 0 {
		t.Errorf("degraded response is not a valid route: %+v", resp)
	}
	// The retry budget was spent, on the documented deterministic schedule.
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Errorf("backoff schedule %v, want [1ms 2ms]", slept)
	}
	st := s.Stats()
	if st.Degraded != 1 || st.Retries != 2 {
		t.Errorf("stats degraded=%d retries=%d, want 1 and 2", st.Degraded, st.Retries)
	}

	// Clear the fault: the same layout must now route with real inference
	// — a degraded entry in the cache would keep answering degraded.
	fault.Reset()
	resp, err = s.Submit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Error("service still degraded after the fault cleared (cache poisoned?)")
	}
	if resp.CacheHit {
		t.Error("degraded result was served from cache")
	}
	if s.Stats().Inferences == 0 {
		t.Error("no inference recorded after recovery")
	}
}

// TestRetryRecoversWithinBudget: a fault that fires once is absorbed by a
// retry — the answer is a normal (non-degraded) response.
func TestRetryRecoversWithinBudget(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	s := newTestService(t, Config{
		sleep: func(time.Duration) {},
	})
	fault.Set("selector.infer", fault.Options{Mode: fault.Error, Times: 1})
	resp, err := s.Submit(context.Background(), serveInstance(t, 43, 6, 6, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Error("one transient failure degraded the response despite the retry budget")
	}
	if st := s.Stats(); st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
}

// TestInjectedPanicContained: a panic at the inference point answers the
// request with ErrInternal (HTTP 500) and leaves the scheduler alive for
// the next request.
func TestInjectedPanicContained(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	s := newTestService(t, Config{})
	fault.Set("selector.infer", fault.Options{Mode: fault.Panic, Times: 1})

	_, err := s.Submit(context.Background(), serveInstance(t, 44, 6, 6, 2, 5))
	if !errors.Is(err, errs.ErrInternal) {
		t.Fatalf("panicked request returned %v, want ErrInternal", err)
	}
	// The daemon survived: the next submit routes normally.
	resp, err := s.Submit(context.Background(), serveInstance(t, 45, 6, 6, 2, 5))
	if err != nil || resp.Degraded {
		t.Fatalf("service dead or degraded after contained panic: resp=%+v err=%v", resp, err)
	}
}

// TestEnqueueFaultShedsRetryably: an injected failure at serve.enqueue is
// shed as a transient (retryable) error, and admission recovers when the
// fault clears.
func TestEnqueueFaultShedsRetryably(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	s := newTestService(t, Config{CacheSize: -1})
	in := serveInstance(t, 46, 6, 6, 2, 4)

	fault.Set("serve.enqueue", fault.Options{Mode: fault.Error, Times: 1})
	_, err := s.Submit(context.Background(), in)
	if !errors.Is(err, errs.ErrTransient) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("enqueue fault surfaced as %v, want transient injected", err)
	}
	if s.Stats().Rejected != 1 {
		t.Errorf("rejected = %d, want 1", s.Stats().Rejected)
	}
	if _, err := s.Submit(context.Background(), in); err != nil {
		t.Fatalf("admission did not recover: %v", err)
	}
}

// TestHTTPFaultStatusCodes covers the wire mapping of the failure modes
// as the client package surfaces them: injected panic → ErrInternal with
// the daemon still answering, 100% inference fault → a successful
// response with Degraded:true and serve.degraded visible in the metrics,
// enqueue fault → ErrTransient (503 + Retry-After on the wire).
func TestHTTPFaultStatusCodes(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	_, cl := newTestServer(t, Config{CacheSize: -1, sleep: func(time.Duration) {}})
	ctx := context.Background()

	post := func() (*Response, error) {
		t.Helper()
		return cl.RouteJSON(ctx, []byte(smallLayoutJSON), nil)
	}

	fault.Set("selector.infer", fault.Options{Mode: fault.Panic, Times: 1})
	if _, err := post(); !errors.Is(err, errs.ErrInternal) {
		t.Errorf("panic request err = %v, want ErrInternal", err)
	}

	// Daemon alive; now a persistent error fault degrades with success.
	fault.Set("selector.infer", fault.Options{Mode: fault.Error})
	resp, err := post()
	if err != nil {
		t.Fatalf("degraded request failed: %v", err)
	}
	if !resp.Degraded {
		t.Error("degraded response not flagged on the wire")
	}
	fault.Clear("selector.infer")

	mtext, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mtext, "oarsmt_serve_degraded") {
		t.Error("metrics do not expose serve.degraded")
	}

	fault.Set("serve.enqueue", fault.Options{Mode: fault.Error, Times: 1})
	if _, err := post(); !errors.Is(err, errs.ErrTransient) {
		t.Errorf("enqueue fault err = %v, want ErrTransient", err)
	}

	// Everything cleared: healthy again.
	fault.Reset()
	if _, err := post(); err != nil {
		t.Errorf("post-recovery request failed: %v", err)
	}
}
