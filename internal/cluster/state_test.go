package cluster

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oarsmt/internal/ckpt"
	"oarsmt/wire"
)

// TestCoordinatorCrashRecovery is the coordinator-restart story: a
// coordinator with a StateDir is killed (Close stands in for SIGKILL —
// persistence happens at every membership change, not at shutdown) and
// its successor rebuilds the ring from the newest frame, grants every
// restored worker a recovery-grace lease, and routes immediately.
func TestCoordinatorCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	cfg := Config{StateDir: dir, LeaseTTL: 10 * time.Second, HedgeDelay: -1, now: clock.now}

	c1 := newTestCoord(t, cfg)
	srv1 := fakeWorker(t, c1, "w1", instantWorker(1))
	srv2 := fakeWorker(t, c1, "w2", instantWorker(2))
	c1.Close() // crash; the state frames are already on disk

	clock.advance(3 * time.Second) // downtime
	c2 := newTestCoord(t, cfg)
	ws := c2.Workers()
	if len(ws) != 2 {
		t.Fatalf("restored coordinator has %d workers, want 2: %+v", len(ws), ws)
	}
	byID := map[string]wire.WorkerInfo{}
	for _, w := range ws {
		byID[w.ID] = w
	}
	if byID["w1"].Addr != srv1.URL || byID["w2"].Addr != srv2.URL {
		t.Errorf("restored addresses = %+v, want the registered ones", ws)
	}
	// A restored worker's lease is LeaseTTL: the full window to renew
	// before the sweep can collect it.
	for _, w := range ws {
		if w.LeaseMillis != 10_000 {
			t.Errorf("restored worker %s lease = %dms, want the 10s grace", w.ID, w.LeaseMillis)
		}
	}
	if got := c2.Stats().Restored; got != 2 {
		t.Errorf("restored stat = %d, want 2", got)
	}
	// Routing resumes without waiting for any agent to re-register.
	resp, err := c2.forward(context.Background(), "k", routeReq())
	if err != nil {
		t.Fatalf("forward on restored coordinator: %v", err)
	}
	if resp.Worker != "w1" && resp.Worker != "w2" {
		t.Errorf("restored forward answered by %q", resp.Worker)
	}

	// The grace window is a lease like any other: without renewal the
	// sweep collects the restored workers.
	clock.advance(11 * time.Second)
	c2.collectExpired()
	if n := len(c2.Workers()); n != 0 {
		t.Errorf("%d restored workers survived an unrenewed grace window", n)
	}
}

// TestCoordinatorStateOmitsDrainingAndExpired: workers that drained or
// whose leases the sweep collected are not resurrected by a restart.
func TestCoordinatorStateOmitsDrainingAndExpired(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	cfg := Config{StateDir: dir, LeaseTTL: 10 * time.Second, HedgeDelay: -1, now: clock.now}

	c1 := newTestCoord(t, cfg)
	fakeWorker(t, c1, "keep", instantWorker(1))
	fakeWorker(t, c1, "leaving", instantWorker(2))
	if err := c1.drain("leaving"); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := newTestCoord(t, cfg)
	if ws := c2.Workers(); len(ws) != 1 || ws[0].ID != "keep" {
		t.Fatalf("restored workers = %+v, want only %q", ws, "keep")
	}

	// Let the survivor expire; the sweep's persist means a further
	// restart comes up empty instead of resurrecting a dead worker.
	clock.advance(11 * time.Second)
	c2.collectExpired()
	c2.Close()
	c3 := newTestCoord(t, cfg)
	if ws := c3.Workers(); len(ws) != 0 {
		t.Fatalf("restart after expiry restored %+v, want none", ws)
	}
	if got := c3.Stats().Restored; got != 0 {
		t.Errorf("restored stat = %d, want 0", got)
	}
}

// TestCoordinatorStateCorruptIsFreshStart: a coordinator whose every
// state frame fails validation must come up empty rather than refuse to
// start — losing membership costs one re-registration round, refusing
// to start costs the cluster.
func TestCoordinatorStateCorruptIsFreshStart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, LeaseTTL: 10 * time.Second, HedgeDelay: -1}

	c1 := newTestCoord(t, cfg)
	fakeWorker(t, c1, "w1", instantWorker(1))
	c1.Close()

	frames, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(frames) == 0 {
		t.Fatalf("no state frames written: %v, %v", frames, err)
	}
	for _, f := range frames {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff // flip one payload byte: the checksum catches it
		if err := os.WriteFile(f, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ckpt.Latest(dir); err == nil {
		t.Fatal("corrupted every frame yet Latest still found one")
	}

	c2 := newTestCoord(t, cfg)
	if ws := c2.Workers(); len(ws) != 0 {
		t.Fatalf("corrupt state restored workers: %+v", ws)
	}
	// The fresh coordinator still registers and persists normally.
	fakeWorker(t, c2, "w2", instantWorker(2))
	if _, err := c2.forward(context.Background(), "k", routeReq()); err != nil {
		t.Fatalf("forward after fresh start: %v", err)
	}
}

// TestCoordinatorStateRetention: membership churn must not accumulate
// unbounded frames — Retain keeps the newest few.
func TestCoordinatorStateRetention(t *testing.T) {
	dir := t.TempDir()
	c := newTestCoord(t, Config{StateDir: dir, HedgeDelay: -1})
	for i := 0; i < 3*stateKeep; i++ {
		fakeWorker(t, c, string(rune('a'+i)), instantWorker(1))
	}
	entries, err := ckpt.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > stateKeep {
		t.Errorf("%d state frames retained, want at most %d", len(entries), stateKeep)
	}
}
