package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"oarsmt/internal/errs"
	"oarsmt/wire"
)

// at builds deterministic breaker timestamps: at(0) is the epoch, at(n)
// is n seconds later.
func at(sec int) time.Time { return time.Unix(2_000_000+int64(sec), 0) }

// TestBreakerTripsAtThreshold: consecutive failures trip the breaker
// exactly at the threshold; a success in between resets the count.
func TestBreakerTripsAtThreshold(t *testing.T) {
	b := newBreaker(3, time.Second)
	b.record(at(0), true, false)
	b.record(at(0), true, false)
	b.record(at(0), false, false) // success resets the streak
	b.record(at(0), true, false)
	if opened := b.record(at(0), true, false); opened {
		t.Fatal("breaker tripped after 2 consecutive failures, threshold is 3")
	}
	if opened := b.record(at(1), true, false); !opened {
		t.Fatal("breaker did not trip at the third consecutive failure")
	}
	if ok, _ := b.admit(at(1)); ok {
		t.Error("open breaker admitted a request inside the cooldown")
	}
	if got := b.stateAt(at(1)); got != "open" {
		t.Errorf("state inside cooldown = %q, want open", got)
	}
}

// TestBreakerHalfOpenSingleProbe: after the cooldown exactly one probe
// is admitted; its success recloses the breaker, its failure reopens it
// for a fresh cooldown.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := newBreaker(1, time.Second)
	b.record(at(0), true, false) // trip
	if got := b.stateAt(at(2)); got != "half-open" {
		t.Errorf("state past cooldown = %q, want half-open", got)
	}

	ok, probe := b.admit(at(2))
	if !ok || !probe {
		t.Fatalf("admit past cooldown = (%v, %v), want the probe slot", ok, probe)
	}
	if ok, _ := b.admit(at(2)); ok {
		t.Fatal("second admit granted while the probe is outstanding")
	}
	// A stale outcome from before the trip must not resolve the probe.
	if b.record(at(2), true, false) {
		t.Error("non-probe outcome moved a half-open breaker")
	}
	if ok, _ := b.admit(at(2)); ok {
		t.Fatal("stale outcome released the probe slot")
	}

	// Probe failure: reopen and wait out a fresh cooldown.
	if opened := b.record(at(2), true, true); !opened {
		t.Fatal("failed probe did not reopen the breaker")
	}
	if ok, _ := b.admit(at(2)); ok {
		t.Error("reopened breaker admitted inside the new cooldown")
	}

	// Second probe succeeds: fully closed again.
	if ok, probe := b.admit(at(4)); !ok || !probe {
		t.Fatalf("admit after second cooldown = (%v, %v), want the probe slot", ok, probe)
	}
	if b.record(at(4), false, true) {
		t.Error("successful probe reported as a trip")
	}
	if !b.closedNow() {
		t.Fatal("successful probe did not reclose the breaker")
	}
	if got := b.stateAt(at(4)); got != "closed" {
		t.Errorf("state after reclose = %q, want closed", got)
	}
}

// TestBreakerDisabled: a non-positive threshold disables the breaker
// entirely — always admitted, never tripped, anonymous in stats.
func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(-1, time.Second)
	for i := 0; i < 100; i++ {
		b.record(at(0), true, false)
	}
	if ok, probe := b.admit(at(0)); !ok || probe {
		t.Errorf("disabled breaker admit = (%v, %v), want (true, false)", ok, probe)
	}
	if !b.closedNow() {
		t.Error("disabled breaker not closed")
	}
	if got := b.stateAt(at(0)); got != "" {
		t.Errorf("disabled breaker state = %q, want empty", got)
	}
}

// TestBreakerFailureClassification: only health-indicating errors count
// against a worker; request defects fail identically everywhere and
// must not trip breakers cluster-wide.
func TestBreakerFailureClassification(t *testing.T) {
	for _, err := range []error{errs.ErrTransient, errs.ErrQueueFull, errs.ErrClosed, errs.ErrTimeout, errs.ErrInternal} {
		if !breakerFailure(fmt.Errorf("wrapped: %w", err)) {
			t.Errorf("breakerFailure(%v) = false, want true", err)
		}
	}
	for _, err := range []error{errs.ErrInvalidLayout, errs.ErrTooLarge, errs.ErrNoPath, nil} {
		if breakerFailure(err) {
			t.Errorf("breakerFailure(%v) = true, want false", err)
		}
	}
}

// flappyWorker answers with a transient error while failing is set —
// retryable, so the cluster keeps answering, and health-indicating, so
// the breaker counts it — and with a normal route otherwise.
func flappyWorker(failing *atomic.Bool, cost float64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			wire.WriteError(w, errs.ErrTransient)
			return
		}
		writeFakeRoute(w, cost)
	}
}

// TestCoordinatorBreakerTripAndRecover is the flapping-worker story end
// to end: a worker failing every request trips its breaker at the
// threshold, traffic routes around it (each failure retried on the
// healthy fallback), and once the cooldown elapses a single half-open
// probe recloses the breaker and traffic returns.
func TestCoordinatorBreakerTripAndRecover(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoord(t, Config{
		HedgeDelay:       -1,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		now:              clock.now,
	})
	probe := newRing(virtualNodes)
	probe.add("w1")
	probe.add("w2")
	order := probe.pick("k", 2)
	primaryID, fallbackID := order[0], order[1]

	var failing atomic.Bool
	failing.Store(true)
	fakeWorker(t, c, primaryID, flappyWorker(&failing, 1))
	fakeWorker(t, c, fallbackID, instantWorker(2))

	ctx := context.Background()
	// Three forwards: each fails on the flapping primary (counting one
	// consecutive breaker failure) and succeeds on the fallback retry.
	for i := 0; i < 3; i++ {
		resp, err := c.forward(ctx, "k", routeReq())
		if err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
		if resp.Worker != fallbackID {
			t.Fatalf("forward %d served by %s, want fallback %s", i, resp.Worker, fallbackID)
		}
	}
	st := c.Stats()
	if st.BreakerOpens != 1 {
		t.Fatalf("breakerOpens = %d after %d failures, want 1", st.BreakerOpens, 3)
	}
	for _, w := range st.Workers {
		want := "closed"
		if w.ID == primaryID {
			want = "open"
		}
		if w.Breaker != want {
			t.Errorf("worker %s breaker = %q, want %q", w.ID, w.Breaker, want)
		}
	}

	// While open the flapping worker sees no traffic at all.
	before := workerForwards(st, primaryID)
	for i := 0; i < 4; i++ {
		resp, err := c.forward(ctx, "k", routeReq())
		if err != nil || resp.Worker != fallbackID {
			t.Fatalf("forward with open breaker = %+v, %v; want fallback answer", resp, err)
		}
	}
	if got := workerForwards(c.Stats(), primaryID); got != before {
		t.Fatalf("open-breaker worker received %d forwards", got-before)
	}
	if got := c.Stats().Retries; got != 3 {
		t.Errorf("retries = %d, want 3 (none while the breaker is open)", got)
	}

	// Past the cooldown the worker has recovered: the half-open probe
	// succeeds and recloses the breaker.
	failing.Store(false)
	clock.advance(6 * time.Second)
	resp, err := c.forward(ctx, "k", routeReq())
	if err != nil {
		t.Fatalf("probe forward: %v", err)
	}
	if resp.Worker != primaryID || resp.Cost != 1 {
		t.Fatalf("probe forward served by %+v, want the recovered primary", resp)
	}
	for _, w := range c.Workers() {
		if w.Breaker != "closed" {
			t.Errorf("worker %s breaker = %q after recovery, want closed", w.ID, w.Breaker)
		}
	}
}

// TestCoordinatorBreakerProbeFailureReopens: a probe that fails sends
// the breaker straight back to open — with the request itself still
// answered by the fallback — and no second probe fires until another
// cooldown has passed.
func TestCoordinatorBreakerProbeFailureReopens(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoord(t, Config{
		HedgeDelay:       -1,
		BreakerThreshold: 1,
		BreakerCooldown:  5 * time.Second,
		now:              clock.now,
	})
	probe := newRing(virtualNodes)
	probe.add("w1")
	probe.add("w2")
	order := probe.pick("k", 2)
	primaryID, fallbackID := order[0], order[1]

	var failing atomic.Bool
	failing.Store(true)
	fakeWorker(t, c, primaryID, flappyWorker(&failing, 1))
	fakeWorker(t, c, fallbackID, instantWorker(2))

	ctx := context.Background()
	if _, err := c.forward(ctx, "k", routeReq()); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().BreakerOpens; got != 1 {
		t.Fatalf("breakerOpens = %d, want 1", got)
	}

	clock.advance(6 * time.Second) // cooldown elapses; worker still broken
	resp, err := c.forward(ctx, "k", routeReq())
	if err != nil || resp.Worker != fallbackID {
		t.Fatalf("probe-failure forward = %+v, %v; want fallback answer", resp, err)
	}
	if got := c.Stats().BreakerOpens; got != 2 {
		t.Fatalf("breakerOpens = %d after failed probe, want 2", got)
	}
	// Inside the fresh cooldown the worker is skipped outright.
	before := workerForwards(c.Stats(), primaryID)
	if resp, err := c.forward(ctx, "k", routeReq()); err != nil || resp.Worker != fallbackID {
		t.Fatalf("forward inside reopened cooldown = %+v, %v", resp, err)
	}
	if got := workerForwards(c.Stats(), primaryID); got != before {
		t.Fatal("reopened breaker admitted traffic inside its cooldown")
	}
}

func workerForwards(st wire.ClusterStats, id string) int64 {
	for _, w := range st.Workers {
		if w.ID == id {
			return w.Forwards
		}
	}
	return -1
}

// TestAdmissionShedsPastMaxInflight: with the admission bound at 1, a
// second concurrent forward is shed with ErrQueueFull — the wire
// contract maps it to 429 + Retry-After — and counted.
func TestAdmissionShedsPastMaxInflight(t *testing.T) {
	c := newTestCoord(t, Config{HedgeDelay: -1, MaxInflight: 1})
	h, arrived, release := gatedWorker(t, 1)
	fakeWorker(t, c, "w1", h)

	done := make(chan error, 1)
	go func() {
		_, err := c.forward(context.Background(), "k", routeReq())
		done <- err
	}()
	<-arrived // the first forward holds the only admission slot

	_, err := c.forward(context.Background(), "k", routeReq())
	if !errors.Is(err, errs.ErrQueueFull) {
		t.Fatalf("forward past the admission bound = %v, want ErrQueueFull", err)
	}
	if got := c.Stats().Shed; got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}

	release()
	if err := <-done; err != nil {
		t.Fatalf("admitted forward failed: %v", err)
	}
	// The slot freed: the next forward is admitted again.
	if _, err := c.forward(context.Background(), "k", routeReq()); err != nil {
		t.Fatalf("forward after the slot freed: %v", err)
	}
	if got := c.Stats().InFlight; got != 0 {
		t.Errorf("inFlight after quiesce = %d, want 0", got)
	}
}
