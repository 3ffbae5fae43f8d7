package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/models"
	"oarsmt/internal/serve"
	"oarsmt/internal/store"
	"oarsmt/wire"
)

// Per-layer metrics of a traced run. The live ones come from the spans
// and from the counters the coordinator and the services keep; the
// rest replay the workload's own layouts through a layer's public
// function, one call at a time, on an otherwise idle process.

// timeEach calls fn(i) for every i in [0, n), reps rounds over, and
// returns the median call time in µs with the mean allocations and KB
// allocated per call. It stops at the first error.
func timeEach(n, reps int, fn func(i int) error) (us, allocs, kb float64, err error) {
	var m0, m1 runtime.MemStats
	times := make([]float64, 0, n*reps)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := fn(i); err != nil {
				return 0, 0, 0, err
			}
			times = append(times, float64(time.Since(t0))/1e3)
		}
	}
	runtime.ReadMemStats(&m1)
	calls := float64(n * reps)
	return median(times), float64(m1.Mallocs-m0.Mallocs) / calls, float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / calls, nil
}

// hitCase is one layout a replay serves as a hit: the orientation first
// routed, and the orientation then asked for.
type hitCase struct {
	base, asked *layout.Instance
	body        []byte
}

// hitCases are the hit path's replay inputs: one non-identity orientation
// of every pool layout, or of the first sampled stream layouts when the
// workload has no pool.
func hitCases(in *inputs, r *refs, stream []int) ([]hitCase, error) {
	augs := grid.AllAugmentations()
	var cs []hitCase
	add := func(k int, base *layout.Instance) error {
		asked := orient(base, augs[1+k%15])
		b, err := encode(asked)
		if err != nil {
			return err
		}
		cs = append(cs, hitCase{base: base, asked: asked, body: b})
		return nil
	}
	if len(in.pool) > 0 {
		for p, pl := range in.pool {
			if err := add(p, pl.in); err != nil {
				return nil, err
			}
		}
		return cs, nil
	}
	for k, i := range stream[:min(len(stream), 32)] {
		if err := add(k, r.stream[i].in); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// replayLayers measures the layers' public functions on the workload's
// layouts. missRefs are the references routed on the miss path (the
// stream sample, or the pool when the workload never misses).
func replayLayers(m map[string]float64, scratch string, hits []hitCase, r *refs, missRefs []*ref) error {
	var err error
	// layout: decoding a request's layout, as both hops do.
	m["layout.decode_us"], m["layout.decode_allocs"], _, err = timeEach(len(hits), 8, func(i int) error {
		_, err := layout.DecodeWithLimit(bytes.NewReader(hits[i].body), 1<<20)
		return err
	})
	if err != nil {
		return fmt.Errorf("replaying decode: %w", err)
	}
	// serve: the canonical key, computed once by each hop.
	m["serve.canonicalize_us"], m["serve.canonicalize_allocs"], _, _ = timeEach(len(hits), 4, func(i int) error {
		serve.CanonicalKey(hits[i].asked)
		return nil
	})
	// wire: what the client does to send a request.
	m["wire.request_encode_us"], _, _, err = timeEach(len(hits), 8, func(i int) error {
		if !json.Valid(hits[i].body) {
			return fmt.Errorf("request %d: invalid layout JSON", i)
		}
		_, err := json.Marshal(wire.RouteRequest{Layout: hits[i].body})
		return err
	})
	if err != nil {
		return fmt.Errorf("replaying request encode: %w", err)
	}

	// serve: an in-process hit on a private service, past HTTP.
	sel, err := models.New()
	if err != nil {
		return err
	}
	svc, err := serve.NewService(serve.Config{Selector: sel})
	if err != nil {
		return err
	}
	defer svc.Close()
	ctx := context.Background()
	for _, h := range hits {
		if _, err := svc.Submit(ctx, h.base); err != nil {
			return fmt.Errorf("replay warm-up: %w", err)
		}
	}
	resps := make([]*wire.RouteResponse, len(hits))
	m["serve.submit_hit_us"], m["serve.submit_hit_allocs"], _, err = timeEach(len(hits), 4, func(i int) error {
		resp, err := svc.Submit(ctx, hits[i].asked)
		if err != nil {
			return err
		}
		if !resp.CacheHit {
			return fmt.Errorf("replayed orientation of %s missed the cache", hits[i].asked.Name)
		}
		resps[i] = resp
		return nil
	})
	if err != nil {
		return fmt.Errorf("replaying in-process hits: %w", err)
	}

	// wire: decoding the response body a worker writes.
	bodies := make([][]byte, len(resps))
	for i, resp := range resps {
		cp := *resp
		cp.Edges = nil
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&cp); err != nil {
			return err
		}
		bodies[i] = buf.Bytes()
	}
	m["wire.response_decode_us"], _, _, err = timeEach(len(bodies), 8, func(i int) error {
		var resp wire.RouteResponse
		return json.Unmarshal(bodies[i], &resp)
	})
	if err != nil {
		return fmt.Errorf("replaying response decode: %w", err)
	}

	// core: stage times of the serial reference routes.
	stage := func(name string) float64 {
		v := make([]float64, len(missRefs))
		for i, f := range missRefs {
			v[i] = f.stages[name]
		}
		return median(v)
	}
	for _, s := range []string{"route", "selector", "oarmst", "retrace", "guard"} {
		m["core."+s+"_ms"] = stage("core." + s)
	}
	rejected := 0
	for _, f := range missRefs {
		if !f.res.UsedSteiner {
			rejected++
		}
	}
	m["core.guard_rejection_ratio"] = ratio(float64(rejected), float64(len(missRefs)))
	m["route.searches_per_route"] = ratio(float64(r.searches), float64(r.routes))
	m["route.heap_pops_per_route"] = ratio(float64(r.heapPops), float64(r.routes))
	m["route.relaxations_per_route"] = ratio(float64(r.relaxations), float64(r.routes))

	// selector: one inference per miss.
	_, m["selector.infer_allocs"], m["selector.infer_kb"], _ = timeEach(len(missRefs), 1, func(i int) error {
		r.sel.SelectSteinerPoints(missRefs[i].in.Graph, missRefs[i].in.Pins)
		return nil
	})

	return replayStore(m, scratch, missRefs)
}

// storeBatch is the store's default flush trigger: a flush lands this
// many routes as one segment.
const storeBatch = 32

// replayStore writes the miss path's routes into a fresh store and reads
// them back: Put per route, Flush per storeBatch routes, Get per route.
func replayStore(m map[string]float64, dir string, refs []*ref) error {
	// A flush trigger above the record count keeps background flushes out
	// of the timed Puts; the explicit Flush calls land every batch.
	st, err := store.Open(store.Options{Dir: dir, MaxEntries: len(refs) + 1, FlushEvery: len(refs) + 1})
	if err != nil {
		return err
	}
	recs := make([]*store.Record, len(refs))
	for i, f := range refs {
		if recs[i], err = record(f); err != nil {
			st.Close()
			return err
		}
	}
	var puts, flushes []float64
	var flushErr error
	for lo := 0; lo < len(recs); lo += storeBatch {
		for _, rec := range recs[lo:min(lo+storeBatch, len(recs))] {
			t0 := time.Now()
			st.Put(rec)
			puts = append(puts, float64(time.Since(t0))/1e3)
		}
		t0 := time.Now()
		if err := st.Flush(); err != nil && flushErr == nil {
			flushErr = err
		}
		flushes = append(flushes, ms(time.Since(t0)))
	}
	m["store.put_us"] = median(puts)
	m["store.flush_ms"] = median(flushes)
	m["store.get_us"], _, _, err = timeEach(len(recs), 4, func(i int) error {
		if _, ok := st.Get(recs[i].Key); !ok {
			return fmt.Errorf("record %d missing after Put", i)
		}
		return nil
	})
	if err != nil && flushErr == nil {
		flushErr = err
	}
	if err := st.Close(); err != nil && flushErr == nil {
		flushErr = err
	}
	return flushErr
}

// record shapes a reference route as a store record keyed by its
// canonical layout hash.
func record(f *ref) (*store.Record, error) {
	var key store.Key
	k, err := hex.DecodeString(serve.CanonicalKey(f.in))
	if err != nil || len(k) != len(key) {
		return nil, fmt.Errorf("canonical key of %s: %v", f.in.Name, err)
	}
	copy(key[:], k)
	g, t := f.in.Graph, f.res.Tree
	rec := &store.Record{Key: key, H: g.H, V: g.V, M: g.M, Root: g.CoordOf(t.Root),
		UsedSteiner: f.res.UsedSteiner, Proposed: f.res.Proposed, Cost: t.Cost}
	for _, e := range t.Edges {
		rec.Edges = append(rec.Edges, [2]grid.Coord{g.CoordOf(e.A), g.CoordOf(e.B)})
	}
	for _, s := range f.res.SteinerPoints {
		rec.Steiner = append(rec.Steiner, g.CoordOf(s))
	}
	return rec, nil
}

// liveLayers derives the span and counter metrics of the traced run.
// Spans come from the traced pass; counters from the untraced pass, whose
// end-to-end numbers they explain.
func liveLayers(m map[string]float64, ls []layered, untraced *pass) {
	var clientSelf, coord, coordSelf, hitMs, missMs []float64
	for _, l := range ls {
		clientSelf = append(clientSelf, l.clientSelf)
		coord = append(coord, l.coord)
		coordSelf = append(coordSelf, l.coordSelf)
		if l.hit {
			hitMs = append(hitMs, l.worker)
		} else {
			missMs = append(missMs, l.worker)
		}
	}
	m["client.self_ms"] = median(clientSelf)
	m["cluster.handler_ms"] = median(coord)
	m["cluster.self_ms"] = median(coordSelf)
	m["serve.handler_hit_ms"] = median(hitMs)
	m["serve.handler_miss_ms"] = median(missMs)

	b, a := untraced.before, untraced.after
	m["cluster.hedges"] = float64(a.coord.Hedges - b.coord.Hedges)
	m["cluster.hedge_wins"] = float64(a.coord.HedgeWins - b.coord.HedgeWins)
	m["cluster.hedge_win_ratio"] = ratio(m["cluster.hedge_wins"], m["cluster.hedges"])
	m["cluster.retries"] = float64(a.coord.Retries - b.coord.Retries)
	m["cluster.shed"] = float64(a.coord.Shed - b.coord.Shed)
	fwd := map[string]int64{}
	for _, w := range b.coord.Workers {
		fwd[w.ID] -= w.Forwards
	}
	var total, top int64
	for _, w := range a.coord.Workers {
		fwd[w.ID] += w.Forwards
	}
	for _, n := range fwd {
		total += n
		top = max(top, n)
	}
	m["cluster.max_worker_share"] = ratio(float64(top), float64(total))

	var d wire.Stats
	for i := range a.services {
		sa, sb := a.services[i], b.services[i]
		d.Batches += sa.Batches - sb.Batches
		d.BatchedJobs += sa.BatchedJobs - sb.BatchedJobs
		d.Inferences += sa.Inferences - sb.Inferences
		d.CacheHits += sa.CacheHits - sb.CacheHits
		d.CacheMisses += sa.CacheMisses - sb.CacheMisses
		d.Rejected += sa.Rejected - sb.Rejected
		d.StoreWrites += sa.StoreWrites - sb.StoreWrites
		d.StoreServed += sa.StoreServed - sb.StoreServed
		d.StoreSegments += sa.StoreSegments
	}
	m["serve.mean_batch"] = ratio(float64(d.BatchedJobs), float64(d.Batches))
	m["serve.inferences_per_miss"] = ratio(float64(d.Inferences), float64(d.CacheMisses))
	m["serve.cache_hit_ratio"] = ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses))
	m["serve.rejected"] = float64(d.Rejected)
	m["store.writes"] = float64(d.StoreWrites)
	m["store.segments"] = float64(d.StoreSegments)
	m["store.served"] = float64(d.StoreServed)

	n := float64(untraced.successes())
	m["runtime.alloc_kb_per_req"] = ratio(float64(untraced.allocBytes)/1024, n)
	m["runtime.mallocs_per_req"] = ratio(float64(untraced.mallocs), n)
	m["runtime.gc_per_kreq"] = ratio(float64(untraced.gcs)*1000, n)
}
