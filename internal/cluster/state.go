package cluster

import (
	"encoding/json"
	"errors"
	"fmt"

	"oarsmt/internal/ckpt"
)

// This file persists the coordinator's membership so a coordinator
// crash is not a cluster blackout. Every membership change (register,
// move, drain, expiry) snapshots the live workers into an internal/ckpt
// frame under Config.StateDir; a restarted coordinator rebuilds the
// ring from the newest valid frame and grants every restored worker a
// recovery-grace lease, so routing resumes immediately and agents have
// a full grace window to renew before the sweep collects them. Leases
// themselves are not persisted — a restored lease would be stale by
// exactly the coordinator's downtime — the grace window stands in for
// them.

// stateSchema versions the persisted coordinator state payload.
const stateSchema = 1

// stateKeep bounds how many state frames Retain leaves in StateDir.
const stateKeep = 4

// coordState is the persisted membership snapshot.
type coordState struct {
	Schema  int           `json:"schema"`
	Workers []stateWorker `json:"workers"`
}

// stateWorker is one registration worth restoring: identity and
// address. Draining workers are omitted — they were leaving anyway.
type stateWorker struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// persistState snapshots the current membership and writes it as the
// next ckpt frame. The snapshot is taken under c.mu; the write happens
// under persistMu only, so a slow fsync never blocks registrations or
// the routing path. Persistence failures are counted, not fatal: the
// coordinator keeps serving from memory exactly as before StateDir
// existed.
func (c *Coordinator) persistState() {
	if c.cfg.StateDir == "" {
		return
	}
	c.mu.Lock()
	st := coordState{Schema: stateSchema}
	for _, w := range c.workers {
		w.mu.Lock()
		draining := w.draining
		w.mu.Unlock()
		if draining {
			continue
		}
		st.Workers = append(st.Workers, stateWorker{ID: w.id, Addr: w.addr})
	}
	c.mu.Unlock()

	payload, err := json.Marshal(st)
	if err != nil {
		c.m.stateErrors.Inc()
		return
	}
	c.persistMu.Lock()
	defer c.persistMu.Unlock()
	c.stateSeq++
	if _, err := ckpt.Save(c.cfg.StateDir, c.stateSeq, payload); err != nil {
		c.m.stateErrors.Inc()
		return
	}
	// Retain failures leave extra frames behind, nothing worse.
	_ = ckpt.Retain(c.cfg.StateDir, stateKeep)
}

// restoreState rebuilds membership from the newest valid state frame.
// Called from New before the sweeper starts, so no locking is needed.
// Each restored worker gets a full LeaseTTL from now: long enough for
// its agent to renew (agents renew on TTL/3) even if the coordinator was
// down for a while. A missing or corrupt state directory is a fresh
// start, not an error — the coordinator must come up even when its disk
// did not survive.
func (c *Coordinator) restoreState() error {
	if c.cfg.StateDir == "" {
		return nil
	}
	entry, payload, err := ckpt.Latest(c.cfg.StateDir)
	if err != nil {
		if errors.Is(err, ckpt.ErrNotFound) {
			return nil
		}
		return fmt.Errorf("cluster: reading coordinator state: %w", err)
	}
	c.stateSeq = entry.Seq
	var st coordState
	if err := json.Unmarshal(payload, &st); err != nil || st.Schema != stateSchema {
		// A frame that passes its checksum but does not decode is from a
		// different build generation; start fresh rather than guess.
		return nil
	}
	until := c.cfg.now().Add(c.cfg.LeaseTTL)
	for _, sw := range st.Workers {
		if sw.ID == "" || sw.Addr == "" {
			continue
		}
		cl, err := c.cfg.newClient(sw.Addr)
		if err != nil {
			continue
		}
		w := c.newWorker(sw.ID, sw.Addr, cl)
		w.leaseUntil = until
		c.workers[sw.ID] = w
		c.ring.add(sw.ID)
		c.restored++
	}
	return nil
}
