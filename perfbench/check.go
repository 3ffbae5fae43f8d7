package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"oarsmt/internal/core"
	"oarsmt/internal/layout"
	"oarsmt/internal/models"
	"oarsmt/internal/obs"
	"oarsmt/internal/selector"
)

// hitTolerance is the relative cost bound between a cache hit served in
// some orientation and the serial route of the warmed orientation: the
// tree is the same, only the float summation order differs.
const hitTolerance = 1e-12

// ref is the serial answer for one layout, computed after the load has
// stopped.
type ref struct {
	in     *layout.Instance
	res    *core.Result
	plain  float64            // core.PlainOARMST cost
	stages map[string]float64 // core.* span durations, ms
}

// refs holds the serial references of a run, with what routing them cost
// (the core and route layers' replay of the workload's own layouts).
type refs struct {
	sel    *selector.Selector
	pool   map[int]*ref
	stream map[int]*ref
	// route.* counter deltas over the serial routes, and how many routes.
	routes                          int
	searches, heapPops, relaxations int64
}

// routeCounters are the process-wide counters the maze router keeps.
func routeCounters() (searches, heapPops, relaxations int64) {
	return obs.Default.Counter("route.searches").Load(),
		obs.Default.Counter("route.heap_pops").Load(),
		obs.Default.Counter("route.relaxations").Load()
}

// buildRefs routes every pool layout and every sampled stream layout
// serially with core.Router.Route, then builds each one's plain OARMST.
func buildRefs(in *inputs, pool []int, stream []int) (*refs, error) {
	sel, err := models.New()
	if err != nil {
		return nil, err
	}
	r := &refs{sel: sel, pool: map[int]*ref{}, stream: map[int]*ref{}}
	var all []*ref
	for _, p := range pool {
		r.pool[p] = &ref{in: in.pool[p].in}
		all = append(all, r.pool[p])
	}
	for _, i := range stream {
		l, err := in.streamLayout(i)
		if err != nil {
			return nil, err
		}
		r.stream[i] = &ref{in: l}
		all = append(all, r.stream[i])
	}
	router := core.NewRouter(sel)
	ctx := context.Background()
	s0, h0, x0 := routeCounters()
	for _, f := range all {
		tr := obs.NewTrace("perfbench.replay")
		if f.res, err = router.Route(ctx, f.in, core.WithObserver(&obs.Observer{Trace: tr})); err != nil {
			return nil, fmt.Errorf("serial route of %s: %w", f.in.Name, err)
		}
		f.stages = stageTimes(tr)
	}
	s1, h1, x1 := routeCounters()
	r.routes = len(all)
	r.searches, r.heapPops, r.relaxations = s1-s0, h1-h0, x1-x0
	for _, f := range all {
		t, err := core.PlainOARMST(ctx, f.in)
		if err != nil {
			return nil, fmt.Errorf("plain OARMST of %s: %w", f.in.Name, err)
		}
		f.plain = t.Cost
	}
	return r, nil
}

// stageTimes reads the core.route span and its stage children.
func stageTimes(tr *obs.Trace) map[string]float64 {
	out := map[string]float64{}
	for _, s := range tr.Root().Children {
		if s.Name != "core.route" {
			continue
		}
		out[s.Name] += ms(time.Duration(s.DurationNS))
		for _, c := range s.Children {
			out[c.Name] += ms(time.Duration(c.DurationNS))
		}
	}
	return out
}

// sampled reports whether a stream position is in a pass's checked
// sample: every sampleEvery-th position from the pass's first, at most
// sampleN of them.
func (w workload) sampled(pos, first int) bool {
	k := pos - first
	return w.sampleEvery > 0 && k >= 0 && k%w.sampleEvery == 0 && k/w.sampleEvery < w.sampleN
}

// verdict is the outcome of checking one pass.
type verdict struct {
	ok, failed, wrong int
	checked           int
	ratios            []float64 // served cost / plain OARMST cost
}

func (v verdict) attempted() int { return v.ok + v.failed + v.wrong }

// check compares every successful answer with its reference: hits within
// hitTolerance of the warmed orientation's serial cost, sampled misses bit
// for bit. Unsampled misses must at least not be degraded.
func check(w workload, r *refs, outs []outcome, first int) verdict {
	var v verdict
	for i := range outs {
		o := &outs[i]
		if o.failed {
			v.failed++
			continue
		}
		var f *ref
		good := !o.degraded && o.cost > 0
		switch {
		case !o.miss:
			f = r.pool[int(o.pool)]
			good = good && math.Abs(o.cost-f.res.Tree.Cost) <= hitTolerance*f.res.Tree.Cost
		case w.sampled(int(o.stream), first):
			f = r.stream[int(o.stream)]
			good = good && o.cost == f.res.Tree.Cost
		}
		if f != nil {
			v.checked++
			v.ratios = append(v.ratios, o.cost/f.plain)
		}
		if good {
			v.ok++
		} else {
			v.wrong++
		}
	}
	return v
}

// refSets lists the pool layouts hit and the sampled stream positions
// answered in the given passes.
func refSets(w workload, passes []*pass) (pool, stream []int) {
	seenP, seenS := map[int]bool{}, map[int]bool{}
	for _, p := range passes {
		for i := range p.outs {
			o := &p.outs[i]
			switch {
			case o.failed:
			case !o.miss && !seenP[int(o.pool)]:
				seenP[int(o.pool)] = true
				pool = append(pool, int(o.pool))
			case o.miss && w.sampled(int(o.stream), p.firstStream) && !seenS[int(o.stream)]:
				seenS[int(o.stream)] = true
				stream = append(stream, int(o.stream))
			}
		}
	}
	sort.Ints(pool)
	sort.Ints(stream)
	return pool, stream
}
