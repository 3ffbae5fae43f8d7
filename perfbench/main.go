// Command perfbench is the repository's serving benchmark. In its own
// process it stands up one cluster coordinator and two workers on
// loopback listeners, drives a named workload through the public client
// package, checks every answer against serial core routing, and prints
// its metrics. Build and run it from a checkout with
//
//	bash perfbench/run.sh --workload hit-hot --seed 1 --seconds 10 --trace 0
//
// Workloads: hit-hot (a closed loop of cache hits), miss-cold (fresh
// layouts only) and mixed-open (an open-loop mix of both over the disk
// store).
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics. With --trace 1 the run splits its time between
// an untraced pass and a traced pass over the same stack, and the last
// line carries the per-layer metrics; the spans are written to a JSON
// file under --out. The line before the last is a report with the run's
// stamp (GOMAXPROCS, CPU count, Go version, commit, seed, workload
// parameters), per-phase request counts and the sample counts behind
// every percentile.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupRepeats is how many times a run brings the stack up; setup_s is
// the median, and the last stack is the one measured.
const setupRepeats = 3

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	root     string
	commit   string
	// wrongRef skews every reference cost, so a correct program must be
	// reported wrong: the benchmark's self-test of its own check.
	wrongRef bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: hit-hot, miss-cold or mixed-open")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of each measured pass")
	trace := fs.Int("trace", 0, "1 measures an untraced then a traced pass and prints per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for scratch files and the trace file")
	fs.StringVar(&o.root, "root", ".", "checkout root, hashed into the run's stamp")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the checkout, for the run's stamp")
	fs.BoolVar(&o.wrongRef, "wrong-reference", false, "skew every reference cost (self-test of the answer check)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	o.trace = *trace == 1
	return o, nil
}

// phaseCount is how one phase's requests fared.
type phaseCount struct {
	Phase     string `json:"phase"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

func countPhase(name string, outs []outcome) phaseCount {
	c := phaseCount{Phase: name, Sent: len(outs)}
	for i := range outs {
		if outs[i].failed {
			c.Failed++
		} else {
			c.Succeeded++
		}
	}
	return c
}

// warmOpenSeconds is the length of an open-loop workload's warm-up phase.
const warmOpenSeconds = 1

// setUp brings a stack up and warms it. Everything it does counts in
// setup_s: a later change that moves work out of the measured window into
// set-up shows there.
func setUp(w workload, in *inputs, storeRoot string, t *tracer) (*loadGen, phaseCount, error) {
	st, err := startStack(storeRoot, t)
	if err != nil {
		return nil, phaseCount{}, err
	}
	d := &loadGen{st: st, w: w, in: in}
	var outs []outcome
	if w.pool {
		reqs := make([]planned, len(in.pool))
		for p, pl := range in.pool {
			reqs[p] = planned{request{pool: int32(p)}, pl.bodies[0]}
		}
		outs = d.sendAll(reqs)
	}
	if w.rate > 0 {
		more, err := d.open(saltWarm, int(w.rate*warmOpenSeconds))
		if err != nil {
			st.close()
			return nil, phaseCount{}, err
		}
		outs = append(outs, more...)
	} else {
		n := 256
		if w.missEvery > 0 {
			n = 16
		}
		reqs := make([]planned, n)
		rng := newRand(mix(in.seed, saltWarm))
		for i := range reqs {
			if reqs[i], err = d.plan(rng, i); err != nil {
				st.close()
				return nil, phaseCount{}, err
			}
		}
		outs = append(outs, d.sendAll(reqs)...)
	}
	pc := countPhase("warm-up", outs)
	if pc.Failed > 0 {
		st.close()
		return nil, pc, fmt.Errorf("%d of %d warm-up requests failed", pc.Failed, pc.Sent)
	}
	return d, pc, nil
}

// pass is one measured window of load.
type pass struct {
	name        string
	outs        []outcome
	firstStream int
	start, end  int64 // clock readings
	// marks are clock and CPU readings at the window boundaries.
	marks      []mark
	allocBytes uint64
	mallocs    uint64
	gcs        uint32
	before     stats
	after      stats
}

func (p *pass) successes() int {
	n := 0
	for i := range p.outs {
		if !p.outs[i].failed {
			n++
		}
	}
	return n
}

// measure runs one pass of the workload for the given length.
func (d *loadGen) measure(name string, salt int64, seconds int) (*pass, error) {
	p := &pass{name: name, firstStream: int(d.next.Load())}
	runtime.GC()
	p.before = d.st.snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.start = now()
	stop := make(chan struct{})
	marked := make(chan []mark)
	//oarsmt:allow rawgo(window marker: stopped by the stop channel and joined through marked)
	go func() { marked <- markWindows(p.start, time.Duration(seconds)*time.Second/windows, stop) }()
	var err error
	if d.w.rate > 0 {
		p.outs, err = d.open(salt, int(d.w.rate*float64(seconds)))
	} else {
		p.outs, err = d.closed(salt, p.start+int64(seconds)*int64(time.Second))
	}
	p.end = now()
	close(stop)
	p.marks = <-marked
	runtime.ReadMemStats(&m1)
	p.after = d.st.snapshot()
	p.allocBytes, p.mallocs, p.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs, m1.NumGC-m0.NumGC
	return p, err
}

// windows is how many equal windows a pass is cut into. Throughput and
// CPU per request are the medians over the windows, so a burst of
// interference from outside the process moves a few windows, not the
// figure.
const windows = 30

// mark is a clock and a CPU reading taken together.
type mark struct{ at, cpu int64 }

// markWindows reads the clock and the CPU time at start and at every
// window boundary after it, until stop closes.
func markWindows(start int64, width time.Duration, stop <-chan struct{}) []mark {
	marks := []mark{{start, int64(cpuTime())}}
	t := time.NewTicker(width)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return marks
		case <-t.C:
			marks = append(marks, mark{now(), int64(cpuTime())})
		}
	}
}

// windowed returns the throughput and CPU ms per request of each of the
// pass's complete windows, counting each request in the window it
// finished in.
func windowed(p *pass) (rps, cpuMs []float64) {
	n := len(p.marks) - 1
	if n < 1 {
		return nil, nil
	}
	done := make([]int, n)
	for i := range p.outs {
		o := &p.outs[i]
		if o.failed {
			continue
		}
		k := sort.Search(n, func(k int) bool { return p.marks[k+1].at > o.done })
		if k < n && o.done >= p.marks[0].at {
			done[k]++
		}
	}
	var r, c []float64
	for k := 0; k < n; k++ {
		secs := time.Duration(p.marks[k+1].at - p.marks[k].at).Seconds()
		r = append(r, float64(done[k])/secs)
		c = append(c, ratio(ms(time.Duration(p.marks[k+1].cpu-p.marks[k].cpu)), float64(done[k])))
	}
	return r, c
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd is a pass's user-visible figures.
type endToEnd struct {
	ThroughputRPS float64   `json:"throughput_rps"`
	WindowRPS     []float64 `json:"window_rps"`
	WindowCPUMs   []float64 `json:"window_cpu_ms_per_req"`
	P50           quantile  `json:"latency_p50_ms"`
	P99           quantile  `json:"latency_p99_ms"`
	ErrorRate     float64   `json:"error_rate"`
	CPUMsPerReq   float64   `json:"cpu_ms_per_req"`
	STMSTRatio    float64   `json:"st_mst_ratio"`
	SendLagP99    quantile  `json:"send_lag_p99_ms"`
	percentileErr error
}

func summarize(p *pass, v verdict) endToEnd {
	var lat, lag []float64
	for i := range p.outs {
		o := &p.outs[i]
		if o.failed {
			continue
		}
		lat = append(lat, ms(o.latency()))
		if o.due != 0 {
			lag = append(lag, float64(o.sent-o.due)/1e6)
		}
	}
	lat = sorted(lat)
	e := endToEnd{ErrorRate: ratio(float64(v.failed+v.wrong), float64(v.attempted()))}
	e.WindowRPS, e.WindowCPUMs = windowed(p)
	e.ThroughputRPS, e.CPUMsPerReq = median(e.WindowRPS), median(e.WindowCPUMs)
	var err50, err99 error
	e.P50, err50 = percentile(lat, 0.50)
	e.P99, err99 = percentile(lat, 0.99)
	e.percentileErr = errors.Join(err50, err99)
	if len(lag) > 0 {
		e.SendLagP99, _ = percentile(sorted(lag), 0.99)
	}
	var sum float64
	for _, r := range v.ratios {
		sum += r
	}
	e.STMSTRatio = ratio(sum, float64(len(v.ratios)))
	return e
}

// report is the line before the last: everything a reader needs to judge
// the run.
type report struct {
	Stamp      stamp              `json:"stamp"`
	Phases     []phaseCount       `json:"phases"`
	SetupS     []float64          `json:"setup_s_each"`
	Checked    int                `json:"answers_checked"`
	Wrong      int                `json:"answers_wrong"`
	Untraced   endToEnd           `json:"untraced"`
	Traced     *endToEnd          `json:"traced,omitempty"`
	MaxRSSMB   float64            `json:"max_rss_mb"`
	SelfTime   []selfRow          `json:"self_time,omitempty"`
	Accounting map[string]float64 `json:"hit_p50_accounting,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
	Errors     []string           `json:"request_errors,omitempty"`
}

// Units of the per-layer metrics; the keys are the metric names.
var layerUnits = map[string]string{
	"client.self_ms": "ms",

	"wire.request_encode_us":  "us",
	"wire.response_decode_us": "us",

	"cluster.handler_ms":       "ms",
	"cluster.self_ms":          "ms",
	"cluster.hedges":           "count",
	"cluster.hedge_wins":       "count",
	"cluster.hedge_win_ratio":  "ratio",
	"cluster.retries":          "count",
	"cluster.shed":             "count",
	"cluster.max_worker_share": "ratio",

	"layout.decode_us":     "us",
	"layout.decode_allocs": "count",

	"serve.handler_hit_ms":      "ms",
	"serve.handler_miss_ms":     "ms",
	"serve.canonicalize_us":     "us",
	"serve.canonicalize_allocs": "count",
	"serve.submit_hit_us":       "us",
	"serve.submit_hit_allocs":   "count",
	"serve.miss_overhead_ms":    "ms",
	"serve.mean_batch":          "count",
	"serve.inferences_per_miss": "count",
	"serve.cache_hit_ratio":     "ratio",
	"serve.rejected":            "count",

	"core.route_ms":              "ms",
	"core.selector_ms":           "ms",
	"core.oarmst_ms":             "ms",
	"core.retrace_ms":            "ms",
	"core.guard_ms":              "ms",
	"core.guard_rejection_ratio": "ratio",

	"selector.infer_allocs": "count",
	"selector.infer_kb":     "KB",

	"route.searches_per_route":    "count",
	"route.heap_pops_per_route":   "count",
	"route.relaxations_per_route": "count",

	"store.put_us":   "us",
	"store.get_us":   "us",
	"store.flush_ms": "ms",
	"store.writes":   "count",
	"store.segments": "count",
	"store.served":   "count",

	"runtime.alloc_kb_per_req": "KB",
	"runtime.mallocs_per_req":  "count",
	"runtime.gc_per_kreq":      "count",

	"bench.send_lag_p99_ms": "ms",
	"bench.trace_overhead":  "ratio",
}

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	in, err := newInputs(w, o.seed)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	var t *tracer
	if o.trace {
		t = &tracer{}
		propagateIDs()
	}
	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	rep := report{Stamp: newStamp(o, w)}
	var d *loadGen
	var warm phaseCount
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.st.close()
			runtime.GC()
		}
		storeRoot := ""
		if w.store {
			storeRoot = filepath.Join(scratch, fmt.Sprintf("store%d", i))
		}
		t0 := time.Now()
		if d, warm, err = setUp(w, in, storeRoot, t); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}
	passes, err := drive(d, t, o.seconds)
	d.st.close()
	rep.Errors = d.errSamples
	if err != nil {
		return err
	}
	rep.MaxRSSMB = maxRSSMB()
	rep.Phases = append(rep.Phases, warm)
	for _, p := range passes {
		rep.Phases = append(rep.Phases, countPhase(p.name, p.outs))
	}

	pool, stream := refSets(w, passes)
	refs, err := buildRefs(in, pool, stream)
	if err != nil {
		return err
	}
	if o.wrongRef {
		for _, f := range refs.pool {
			f.res.Tree.Cost *= 1 + 1e-6
		}
		for _, f := range refs.stream {
			f.res.Tree.Cost *= 1 + 1e-6
		}
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	var ends []endToEnd
	for _, p := range passes {
		v := check(w, refs, p.outs, p.firstStream)
		res.Attempted += v.attempted()
		res.Failed += v.failed + v.wrong
		res.Correct = res.Correct && v.wrong == 0
		rep.Checked += v.checked
		rep.Wrong += v.wrong
		ends = append(ends, summarize(p, v))
	}
	rep.Untraced = ends[0]

	if !o.trace {
		e := ends[0]
		if e.percentileErr != nil {
			return fmt.Errorf("refusing to report latency: %w", e.percentileErr)
		}
		for name, m := range map[string]metric{
			"setup_s":        {median(rep.SetupS), "s"},
			"throughput_rps": {e.ThroughputRPS, "1/s"},
			"latency_p50_ms": {e.P50.Value, "ms"},
			"latency_p99_ms": {e.P99.Value, "ms"},
			"success_rate":   {1 - e.ErrorRate, "ratio"},
			"cpu_ms_per_req": {e.CPUMsPerReq, "ms"},
			"max_rss_mb":     {rep.MaxRSSMB, "MB"},
			"st_mst_ratio":   {e.STMSTRatio, "ratio"},
		} {
			res.Metrics[name] = m
		}
	} else {
		rep.Traced = &ends[1]
		layers, err := traceLayers(&rep, o, w, in, t, d.st.workers, passes, refs, stream, scratch)
		if err != nil {
			return err
		}
		for name, unit := range layerUnits {
			v, ok := layers[name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", name)
			}
			res.Metrics[name] = metric{v, unit}
		}
	}

	printSummary(stderr, &rep, res)
	for _, v := range []any{rep, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// drive measures the untraced pass, or, when tracing, an untraced pass
// over the first half of the time and a traced pass over the second.
func drive(d *loadGen, t *tracer, seconds int) ([]*pass, error) {
	if t == nil {
		p, err := d.measure("timed", saltTimed, seconds)
		return []*pass{p}, err
	}
	half := max(seconds/2, 1)
	p, err := d.measure("timed", saltTimed, half)
	if err != nil {
		return nil, err
	}
	t.on.Store(true)
	d.traced = true
	tp, err := d.measure("traced", saltTraced, max(seconds-half, 1))
	t.on.Store(false)
	return []*pass{p, tp}, err
}

// traceLayers computes every per-layer metric and writes the trace file.
func traceLayers(rep *report, o options, w workload, in *inputs, t *tracer, workers []string,
	passes []*pass, r *refs, stream []int, scratch string) (map[string]float64, error) {
	traced := passes[1]
	m := map[string]float64{}
	ls := t.layers(traced.outs)
	liveLayers(m, ls, passes[0])
	rep.SelfTime = selfTable(ls)

	var missRefs []*ref
	for _, i := range stream {
		missRefs = append(missRefs, r.stream[i])
	}
	if len(missRefs) == 0 {
		for _, p := range sortedKeys(r.pool) {
			missRefs = append(missRefs, r.pool[p])
		}
	}
	hits, err := hitCases(in, r, stream)
	if err != nil {
		return nil, err
	}
	if err := replayLayers(m, filepath.Join(scratch, "store-replay"), hits, r, missRefs); err != nil {
		return nil, err
	}
	if m["serve.handler_miss_ms"] > 0 {
		m["serve.miss_overhead_ms"] = m["serve.handler_miss_ms"] - m["core.route_ms"]
	} else {
		m["serve.miss_overhead_ms"] = 0
	}
	m["bench.send_lag_p99_ms"] = rep.Untraced.SendLagP99.Value
	m["bench.trace_overhead"] = ratio(rep.Untraced.ThroughputRPS, rep.Traced.ThroughputRPS) - 1

	// The client, coordinator and worker self times of a hit add up to
	// the client's time for it; set their medians beside the p50s.
	rep.Accounting = map[string]float64{
		"sum_of_self_p50_ms":   m["client.self_ms"] + m["cluster.self_ms"] + m["serve.handler_hit_ms"],
		"traced_p50_ms":        rep.Traced.P50.Value,
		"untraced_p50_ms":      rep.Untraced.P50.Value,
		"traced_requests_used": float64(len(ls)),
	}
	rep.TraceFile = filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
	return m, t.writeFile(rep.TraceFile, traced.start, workers, traced.outs, rep.SelfTime)
}

func sortedKeys(m map[int]*ref) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// printSummary writes a readable account of the run to stderr.
func printSummary(w io.Writer, rep *report, res result) {
	fmt.Fprintf(w, "perfbench %s seed=%d GOMAXPROCS=%d nproc=%d %s commit=%s\n",
		rep.Stamp.Workload, rep.Stamp.Seed, rep.Stamp.GOMAXPROCS, rep.Stamp.NumCPU, rep.Stamp.GoVersion, rep.Stamp.GitCommit)
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "  phase %-8s sent %d, succeeded %d, failed %d\n", p.Phase, p.Sent, p.Succeeded, p.Failed)
	}
	fmt.Fprintf(w, "  answers checked %d, wrong %d\n", rep.Checked, rep.Wrong)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, r := range rep.SelfTime {
		fmt.Fprintf(w, "  self %-16s p50 %.4f ms  mean %.4f ms  share %.3f\n", r.Layer, r.P50Ms, r.MeanMs, r.Share)
	}
}
