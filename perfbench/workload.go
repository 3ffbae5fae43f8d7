package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
)

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// pool: hit requests pick one of the 16 orientations of a layout from
	// the warmed pool.
	pool bool
	// missEvery: every missEvery-th request of a client (of the schedule,
	// in an open loop) carries a never-seen layout from the fresh stream;
	// 0 means none. Evenly spaced misses keep a run's tail from hanging on
	// how many of them a random draw happened to bunch together.
	missEvery int
	// rate is the open-loop arrival rate in requests per second; 0 means
	// a closed loop of numClients clients.
	rate float64
	// store runs the workers with the disk route store.
	store bool
	// Misses are checked bit for bit on every sampleEvery-th stream
	// position of a pass, sampleN of them at most.
	sampleEvery, sampleN int
}

var workloads = []workload{
	{
		name: "hit-hot", pool: true,
		why: "closed loop, 2 clients, memory-tier hits over a warmed 64-layout pool in 16 orientations: only client, wire, cluster, layout and serve run",
	},
	{
		name: "miss-cold", missEvery: 1, sampleEvery: 8, sampleN: 96,
		why: "closed loop, 2 clients, every request a never-seen 16x16x4 10-pin layout: queue, batch, selector inference, OARMST, retrace and guard run",
	},
	{
		name: "mixed-open", pool: true, missEvery: 10, rate: 200, store: true, sampleEvery: 2, sampleN: 64,
		why: "open loop at 200 req/s on 2 connections, every 10th request a fresh miss and the rest pool hits, disk store on: writes beside reads, misses contending with hits",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Layout shapes. The pool is small so a hit is cheap; stream layouts are
// the 16x16x4 training size, so a miss costs what the paper's router
// costs.
var (
	poolSpec = layout.RandomSpec{H: 8, V: 8, MinM: 2, MaxM: 2, MinPins: 5, MaxPins: 5,
		MinObstacles: 4, MaxObstacles: 8}
	streamSpec = layout.RandomSpec{H: 16, V: 16, MinM: 4, MaxM: 4, MinPins: 10, MaxPins: 10,
		MinObstacles: 8, MaxObstacles: 16}
)

// errStreamExhausted fails a run that would have to repeat a layout.
var errStreamExhausted = errors.New("fresh-layout stream exhausted")

const (
	poolSize = 64
	// streamCap bounds the fresh stream. Each position is generated from
	// its own seed, so the cap only guards against a run that would
	// otherwise wrap around and repeat a layout.
	streamCap = 1 << 24
)

// Seed salts, so every random choice of a run draws from its own source.
const (
	saltPool = iota + 1
	saltStream
	saltWarm
	saltTimed
	saltTraced
)

// mix derives a seed from the run seed and salts (splitmix64 finalizer).
func mix(vals ...int64) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h ^= uint64(v)
		h += 0x9E3779B97F4A7C15
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return int64(h >> 1)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// poolLayout is a pool layout and its 16 encoded orientations; bodies[0]
// is the identity orientation, the one warm-up routes.
type poolLayout struct {
	in     *layout.Instance
	bodies [][]byte
}

// inputs are the generated layouts of a run.
type inputs struct {
	seed int64
	pool []poolLayout
}

func newInputs(w workload, seed int64) (*inputs, error) {
	in := &inputs{seed: seed}
	if !w.pool {
		return in, nil
	}
	rng := newRand(mix(seed, saltPool))
	for i := 0; i < poolSize; i++ {
		base, err := layout.Random(rng, poolSpec)
		if err != nil {
			return nil, err
		}
		base.Name = fmt.Sprintf("pool%d", i)
		pl := poolLayout{in: base}
		for _, a := range grid.AllAugmentations() {
			b, err := encode(orient(base, a))
			if err != nil {
				return nil, err
			}
			pl.bodies = append(pl.bodies, b)
		}
		in.pool = append(in.pool, pl)
	}
	return in, nil
}

// streamLayout is position i of the fresh stream.
func (in *inputs) streamLayout(i int) (*layout.Instance, error) {
	l, err := layout.Random(newRand(mix(in.seed, saltStream, int64(i))), streamSpec)
	if err != nil {
		return nil, err
	}
	l.Name = fmt.Sprintf("fresh%d", i)
	return l, nil
}

// orient returns the instance under one augmentation.
func orient(in *layout.Instance, a grid.Aug) *layout.Instance {
	g := in.Graph
	ng := a.Apply(g)
	pins := make([]grid.VertexID, len(in.Pins))
	for i, p := range in.Pins {
		pins[i] = ng.IndexOf(a.ApplyCoord(g.H, g.V, g.M, g.CoordOf(p)))
	}
	return &layout.Instance{Name: in.Name, Graph: ng, Pins: pins}
}

func encode(in *layout.Instance) ([]byte, error) {
	var buf bytes.Buffer
	if err := layout.EncodeInstance(&buf, in); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// epoch is the benchmark's time base. Outcomes and spans store clock
// readings as ns since epoch, so the records the benchmark keeps while
// the stack is under load hold no pointers and cost the garbage collector
// nothing to scan.
var epoch = time.Now()

// now reads the monotonic clock as ns since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// request is one planned request.
type request struct {
	miss   bool
	pool   int32 // hit: pool layout, asked for in a random orientation
	stream int32 // miss: stream position
}

// planned is a request with its encoded body.
type planned struct {
	request
	body []byte
}

// outcome is a sent request and what came back.
type outcome struct {
	request
	failed   bool
	cacheHit bool
	degraded bool
	worker   int8  // answering worker's index in the stack; -1 if unknown
	id       int64 // traced passes only
	// Clock readings; due is 0 in a closed loop.
	due, sent, done int64
	cost            float64
}

// latency is timed from the due time in an open loop, so a stall charges
// every request it delayed; in a closed loop from the send.
func (o *outcome) latency() time.Duration {
	if o.due == 0 {
		return time.Duration(o.done - o.sent)
	}
	return time.Duration(o.done - o.due)
}

// loadGen sends a workload's requests through one stack.
type loadGen struct {
	st     *stack
	w      workload
	in     *inputs
	traced bool
	// next is the next unused stream position; ids numbers traced
	// requests.
	next atomic.Int64
	ids  atomic.Int64

	errMu sync.Mutex
	// errSamples keeps the first few distinct request errors for the
	// report.
	errSamples []string
}

// plan picks the k-th request of a client or schedule.
func (d *loadGen) plan(rng *rand.Rand, k int) (planned, error) {
	if d.w.missEvery > 0 && k%d.w.missEvery == 0 {
		i := d.next.Add(1) - 1
		if i >= streamCap {
			return planned{}, errStreamExhausted
		}
		l, err := d.in.streamLayout(int(i))
		if err != nil {
			return planned{}, err
		}
		b, err := encode(l)
		if err != nil {
			return planned{}, err
		}
		return planned{request{miss: true, stream: int32(i)}, b}, nil
	}
	p, o := rng.Intn(poolSize), rng.Intn(16)
	return planned{request{pool: int32(p)}, d.in.pool[p].bodies[o]}, nil
}

func (d *loadGen) send(o *outcome, body []byte) {
	ctx := context.Background()
	if d.traced {
		o.id = d.ids.Add(1)
		ctx = context.WithValue(ctx, reqIDKey{}, o.id)
	}
	o.sent = now()
	resp, err := d.st.cl.RouteJSON(ctx, body, nil)
	o.done = now()
	if err != nil {
		o.failed = true
		d.noteError(err)
		return
	}
	o.cost, o.cacheHit, o.degraded = resp.Cost, resp.CacheHit, resp.Degraded
	o.worker = d.st.workerIndex(resp.Worker)
}

func (d *loadGen) noteError(err error) {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	msg := err.Error()
	if len(d.errSamples) >= 5 || slices.Contains(d.errSamples, msg) {
		return
	}
	d.errSamples = append(d.errSamples, msg)
}

// sendAll sends fixed requests from numClients closed-loop clients.
func (d *loadGen) sendAll(reqs []planned) []outcome {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		//oarsmt:allow goroleak(one request loop of a bounded load, joined by wg.Wait below)
		go func() { //oarsmt:allow rawgo(load client: concurrent requests are the load itself)
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(outs); i = int(next.Add(1) - 1) {
				outs[i].request = reqs[i].request
				d.send(&outs[i], reqs[i].body)
			}
		}()
	}
	wg.Wait()
	return outs
}

// closed runs numClients clients, each sending its next request as soon
// as the last one answers, until the deadline; requests in flight at the
// deadline finish and count.
func (d *loadGen) closed(salt int64, deadline int64) ([]outcome, error) {
	per := make([][]outcome, numClients)
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		//oarsmt:allow goroleak(one request loop of a bounded load, joined by wg.Wait below)
		go func() { //oarsmt:allow rawgo(load client: concurrent requests are the load itself)
			defer wg.Done()
			rng := newRand(mix(d.in.seed, salt, int64(c)))
			per[c] = make([]outcome, 0, 1<<14)
			for k := 0; now() < deadline; k++ {
				r, err := d.plan(rng, k)
				if err != nil {
					errs[c] = err
					return
				}
				o := outcome{request: r.request}
				d.send(&o, r.body)
				per[c] = append(per[c], o)
			}
		}()
	}
	wg.Wait()
	var outs []outcome
	for c := range per {
		if errs[c] != nil {
			return nil, errs[c]
		}
		outs = append(outs, per[c]...)
	}
	return outs, nil
}

// open sends n planned requests at the workload's rate, each on its due
// time whether or not earlier ones have answered. At most numClients
// connections exist, so requests beyond them wait in the client for one,
// and that wait counts in their latency.
func (d *loadGen) open(salt int64, n int) ([]outcome, error) {
	rng := newRand(mix(d.in.seed, salt))
	plan := make([]planned, n)
	outs := make([]outcome, n)
	for i := range plan {
		var err error
		if plan[i], err = d.plan(rng, i); err != nil {
			return nil, err
		}
		outs[i].request = plan[i].request
	}
	interval := int64(float64(time.Second) / d.w.rate)
	start := now() + int64(time.Millisecond)
	var wg sync.WaitGroup
	for i := range outs {
		due := start + int64(i)*interval
		time.Sleep(time.Duration(due - now()))
		outs[i].due = due
		wg.Add(1)
		//oarsmt:allow goroleak(one request loop of a bounded load, joined by wg.Wait below)
		go func(o *outcome, body []byte) { //oarsmt:allow rawgo(open-loop send: must not wait for earlier answers)
			defer wg.Done()
			d.send(o, body)
		}(&outs[i], plan[i].body)
	}
	wg.Wait()
	return outs, nil
}
