// oarsmt-chaos is the deterministic chaos harness driven by `make
// chaos-test`, and the one tool that drives real daemon processes:
// scripted multi-process failure scenarios against a real oarsmt-serve
// cluster — worker SIGKILL under load, coordinator crash and ckpt
// recovery, an agent-side network partition, a slow shard, a warm
// restart and then a corrupted store segment, a flapping worker tripping
// its circuit breaker, and a graceful worker drain under fire followed
// by a clean shutdown of the whole fleet. Faults inside the child
// processes are armed through the OARSMT_FAULTS environment spec
// (internal/fault), so every scenario's failure schedule is
// deterministic; the only nondeterminism left is scheduling, which the
// assertions bound in lease periods rather than wall seconds.
//
// Every scenario asserts the chaos invariants:
//
//   - zero dropped accepted requests: every request the cluster admits
//     is answered (shed/429 is a refusal, not a drop — and the driver
//     counts any failure as a scenario failure);
//   - never a wrong route: answers are re-checked against the reference
//     cost of the same layout (workers re-validate replicated and
//     store-recovered trees server-side);
//   - bounded recovery: the cluster is healthy again within a small
//     number of lease periods, recorded per scenario;
//   - clean exits: a SIGTERMed daemon drains and exits 0.
//
// Usage:
//
//	oarsmt-chaos -bin bin/oarsmt-serve
//	oarsmt-chaos -bin bin/oarsmt-serve -run 'worker-kill|flap' -json BENCH_chaos.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"oarsmt/client"
	"oarsmt/internal/fault"
	"oarsmt/wire"
)

// chaosLayout is the reference workload: big enough that routing does
// real work, small enough that a scenario's requests finish in
// milliseconds.
const chaosLayout = `{"name":"chaos","grid":{"h":6,"v":6,"m":2,"viaCost":2,` +
	`"dx":[1,1,1,1,1],"dy":[1,1,1,1,1],"blocked":[14,15,50],"pins":[0,5,35,70]}}`

// variantLayout perturbs the reference layout's pins so each variant
// has a distinct canonical hash and therefore its own shard placement.
func variantLayout(i int) string {
	return fmt.Sprintf(`{"name":"v%d","grid":{"h":6,"v":6,"m":2,"viaCost":2,`+
		`"dx":[1,1,1,1,1],"dy":[1,1,1,1,1],"blocked":[14,15,50],"pins":[%d,5,35,70]}}`, i, i+20)
}

// result is one scenario's line in BENCH_chaos.json.
type result struct {
	Name     string  `json:"name"`
	Seconds  float64 `json:"seconds"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	// RecoverySeconds is how long the scenario's failure took to heal
	// (kill to warm successor answer, coordinator restart to first
	// route, partition to rejoin, breaker trip to reclose).
	RecoverySeconds float64 `json:"recoverySeconds"`
	// LeaseTTLSeconds is the scenario's lease period, the unit recovery
	// is budgeted in.
	LeaseTTLSeconds float64 `json:"leaseTtlSeconds,omitempty"`
	// RecoveryLeasePeriods is RecoverySeconds / LeaseTTLSeconds.
	RecoveryLeasePeriods float64 `json:"recoveryLeasePeriods,omitempty"`
	Detail               string  `json:"detail,omitempty"`
}

type report struct {
	Scenarios []result `json:"scenarios"`
	Seconds   float64  `json:"seconds"`
	Pass      bool     `json:"pass"`
}

// scenario is one scripted failure story.
type scenario struct {
	name string
	run  func(*harness) error
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("oarsmt-chaos: ")
	bin := flag.String("bin", "bin/oarsmt-serve", "oarsmt-serve binary to torture")
	runPat := flag.String("run", "", "regexp selecting scenarios (default all)")
	jsonOut := flag.String("json", "", "write the JSON report here")
	flag.Parse()

	scenarios := []scenario{
		{"worker-kill", scenarioWorkerKill},
		{"coord-restart", scenarioCoordRestart},
		{"partition", scenarioPartition},
		{"slow-shard", scenarioSlowShard},
		{"corrupt-store", scenarioCorruptStore},
		{"flap", scenarioFlap},
		{"drain", scenarioDrain},
	}
	var sel *regexp.Regexp
	if *runPat != "" {
		var err error
		if sel, err = regexp.Compile(*runPat); err != nil {
			log.Fatalf("-run: %v", err)
		}
	}

	rep := report{Pass: true}
	start := time.Now()
	for _, sc := range scenarios {
		if sel != nil && !sel.MatchString(sc.name) {
			continue
		}
		h := &harness{bin: *bin, name: sc.name}
		t0 := time.Now()
		err := sc.run(h)
		h.teardown()
		r := h.res
		r.Name = sc.name
		r.Seconds = time.Since(t0).Seconds()
		if r.LeaseTTLSeconds > 0 {
			r.RecoveryLeasePeriods = r.RecoverySeconds / r.LeaseTTLSeconds
		}
		if err != nil {
			rep.Pass = false
			log.Printf("FAIL %s: %v", sc.name, err)
		} else {
			log.Printf("pass %s: %d reqs, %d errors, recovery %.2fs (%.2f lease periods)",
				sc.name, r.Requests, r.Errors, r.RecoverySeconds, r.RecoveryLeasePeriods)
		}
		rep.Scenarios = append(rep.Scenarios, r)
	}
	rep.Seconds = time.Since(start).Seconds()
	if len(rep.Scenarios) == 0 {
		log.Fatalf("-run %q matched no scenarios", *runPat)
	}

	if *jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *jsonOut)
	}
	if !rep.Pass {
		os.Exit(1)
	}
	log.Print("PASS")
}

// harness owns one scenario's fleet of child processes and its counters.
type harness struct {
	bin     string
	name    string
	res     result
	daemons []*daemon

	requests atomic.Int64
	errors   atomic.Int64
}

func (h *harness) teardown() {
	for _, d := range h.daemons {
		d.cmd.Process.Kill()
	}
	h.res.Requests = h.requests.Load()
	h.res.Errors = h.errors.Load()
}

// daemon is one child oarsmt-serve process and the client bound to it.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // host:port
	base   string // http://host:port
	cl     *client.Client
	exited chan error
}

// start launches the binary on addr (empty picks a free port) with the
// given OARSMT_FAULTS spec and extra args, and waits for health.
func (h *harness) start(addr, faults string, extra ...string) (*daemon, error) {
	if addr == "" {
		var err error
		if addr, err = freeAddr(); err != nil {
			return nil, err
		}
	}
	args := append([]string{"-addr", addr, "-queue", "32", "-timeout", "30s"}, extra...)
	cmd := exec.Command(h.bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.Env = os.Environ()
	if faults != "" {
		cmd.Env = append(cmd.Env, "OARSMT_FAULTS="+faults)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", h.bin, err)
	}
	cl, err := client.New(client.Config{BaseURL: "http://" + addr, Timeout: 60 * time.Second, Retries: 2})
	if err != nil {
		cmd.Process.Kill()
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, base: "http://" + addr, cl: cl, exited: make(chan error, 1)}
	//oarsmt:allow rawgo(chaos-test plumbing: waits on the child daemon process, no routing state involved)
	go func() { d.exited <- cmd.Wait() }()
	h.daemons = append(h.daemons, d)
	// The startup race between the child binding its port and the first
	// probe resolves on the same bounded backoff on any box.
	var lastErr error
	err = poll(func() (bool, error) {
		select {
		case err := <-d.exited:
			return false, fmt.Errorf("daemon exited before becoming healthy: %v", err)
		default:
		}
		lastErr = cl.Healthz(context.Background())
		return lastErr == nil, nil
	})
	if err != nil {
		cmd.Process.Kill()
		return nil, fmt.Errorf("health: %w (last err: %v)", err, lastErr)
	}
	return d, nil
}

// kill SIGKILLs the daemon — no drain, no goodbye.
func (d *daemon) kill() error {
	if err := d.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	select {
	case <-d.exited:
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("daemon survived SIGKILL for 60s")
	}
}

// drain SIGTERMs the daemon and requires the graceful drain to end in a
// clean exit 0.
func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("daemon exited non-zero after SIGTERM: %v", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("daemon did not exit within 60s of SIGTERM")
	}
}

// route routes one layout through cl, counting it against the harness.
func (h *harness) route(cl *client.Client, layoutJSON string, edges bool) (*wire.RouteResponse, error) {
	h.requests.Add(1)
	var opts *client.RouteOptions
	if edges {
		opts = &client.RouteOptions{Edges: true}
	}
	resp, err := cl.RouteJSON(context.Background(), []byte(layoutJSON), opts)
	if err != nil {
		h.errors.Add(1)
	}
	return resp, err
}

// scenarioWorkerKill: SIGKILL the shard owner of the reference layout
// while concurrent requests are in flight. Replication must leave the
// shard warm on the successor (a cache hit at the same cost), no
// admitted request may be dropped, and a restarted worker reusing the
// same identity rejoins within three lease periods.
func scenarioWorkerKill(h *harness) error {
	const ttl = 2 * time.Second
	h.res.LeaseTTLSeconds = ttl.Seconds()
	coord, err := h.start("", "", "-coordinator", "-lease-ttl", "2s", "-hedge-delay", "100ms",
		"-breaker-threshold", "3", "-breaker-cooldown", "500ms", "-replicate")
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	workers := map[string]*daemon{}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("w%d", i)
		w, err := h.start("", "", "-register", coord.base, "-worker-id", id)
		if err != nil {
			return fmt.Errorf("worker %s: %w", id, err)
		}
		workers[id] = w
	}
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool { return len(st.Workers) >= 3 }); err != nil {
		return fmt.Errorf("3 workers never registered: %w", err)
	}

	first, err := h.route(coord.cl, chaosLayout, true)
	if err != nil {
		return err
	}
	victim := workers[first.Worker]
	if victim == nil {
		return fmt.Errorf("reference layout served by unknown worker %q", first.Worker)
	}
	// The successor must be warm before the kill: replication is async.
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool { return st.Replicated >= 1 }); err != nil {
		return fmt.Errorf("reference route never replicated: %w", err)
	}

	// Kill the owner mid-load: 8 drivers × 6 requests across every
	// shard, with the SIGKILL landing while they are in flight.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		//oarsmt:allow goroleak(bounded request loop joined by wg.Wait a few lines down)
		go func(i int) { //oarsmt:allow rawgo(chaos-test plumbing: concurrent load during the kill, joined below)
			defer wg.Done()
			for j := 0; j < 6; j++ {
				if j%2 == 0 {
					h.route(coord.cl, chaosLayout, false)
				} else {
					h.route(coord.cl, variantLayout(i*6+j), false)
				}
			}
		}(i)
	}
	killedAt := time.Now()
	if err := victim.kill(); err != nil {
		return err
	}
	wg.Wait()
	if n := h.errors.Load(); n != 0 {
		return fmt.Errorf("%d of %d requests dropped during the worker kill", n, h.requests.Load())
	}

	// The shard serves warm from the successor.
	warm, err := h.route(coord.cl, chaosLayout, false)
	if err != nil {
		return fmt.Errorf("route after the kill: %w", err)
	}
	h.res.RecoverySeconds = time.Since(killedAt).Seconds()
	if warm.Worker == first.Worker {
		return fmt.Errorf("killed worker %q still serving", first.Worker)
	}
	if !warm.CacheHit {
		return fmt.Errorf("successor %q served the shard cold — replication did not warm it", warm.Worker)
	}
	if warm.Cost != first.Cost {
		return fmt.Errorf("successor cost %v != reference cost %v", warm.Cost, first.Cost)
	}

	// A replacement reusing the identity rejoins within 3 lease periods.
	rejoinStart := time.Now()
	if _, err := h.start("", "", "-register", coord.base, "-worker-id", first.Worker); err != nil {
		return fmt.Errorf("restarted worker: %w", err)
	}
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool {
		live := 0
		for _, w := range st.Workers {
			if !w.Draining && w.LeaseMillis > 0 {
				live++
			}
		}
		return live >= 3
	}); err != nil {
		return fmt.Errorf("restarted worker never rejoined: %w", err)
	}
	if rejoin := time.Since(rejoinStart); rejoin > 3*ttl {
		return fmt.Errorf("rejoin took %v, budget 3 lease periods (%v)", rejoin, 3*ttl)
	}
	again, err := h.route(coord.cl, chaosLayout, false)
	if err != nil {
		return err
	}
	if again.Cost != first.Cost {
		return fmt.Errorf("post-rejoin cost %v != reference cost %v", again.Cost, first.Cost)
	}
	h.res.Detail = fmt.Sprintf("owner %s killed; successor %s warm; rejoined", first.Worker, warm.Worker)
	return nil
}

// scenarioCoordRestart: SIGKILL the coordinator and restart it on the
// same address over the same -state-dir. The ring must come back from
// the ckpt frames — workers listed, Restored counted, routing answering
// — within one lease period, without waiting for any agent to renew.
func scenarioCoordRestart(h *harness) error {
	const ttl = 3 * time.Second
	h.res.LeaseTTLSeconds = ttl.Seconds()
	dir, err := os.MkdirTemp("", "oarsmt-chaos-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	coordArgs := []string{"-coordinator", "-lease-ttl", "3s", "-hedge-delay", "100ms", "-state-dir", dir}
	coord, err := h.start(addr, "", coordArgs...)
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := h.start("", "", "-register", coord.base, "-worker-id", fmt.Sprintf("w%d", i)); err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool { return len(st.Workers) >= 2 }); err != nil {
		return err
	}
	first, err := h.route(coord.cl, chaosLayout, false)
	if err != nil {
		return err
	}

	if err := coord.kill(); err != nil {
		return err
	}
	restartAt := time.Now()
	coord2, err := h.start(addr, "", coordArgs...)
	if err != nil {
		return fmt.Errorf("restarted coordinator: %w", err)
	}
	st, err := coord2.cl.ClusterStats(context.Background())
	if err != nil {
		return err
	}
	if len(st.Workers) != 2 || st.Restored != 2 {
		return fmt.Errorf("restarted ring has %d workers (%d restored), want 2/2", len(st.Workers), st.Restored)
	}
	resp, err := h.route(coord2.cl, chaosLayout, false)
	if err != nil {
		return fmt.Errorf("route on restored coordinator: %w", err)
	}
	h.res.RecoverySeconds = time.Since(restartAt).Seconds()
	if resp.Cost != first.Cost {
		return fmt.Errorf("restored cost %v != reference cost %v", resp.Cost, first.Cost)
	}
	if h.res.RecoverySeconds > ttl.Seconds() {
		return fmt.Errorf("recovery took %.2fs, budget one lease period (%v)", h.res.RecoverySeconds, ttl)
	}
	// The agents renew against the restored coordinator before the grace
	// window lapses: the ring must still be whole one sweep later.
	time.Sleep(ttl / 2)
	st, err = coord2.cl.ClusterStats(context.Background())
	if err != nil {
		return err
	}
	if len(st.Workers) != 2 {
		return fmt.Errorf("ring shrank to %d workers after the grace window", len(st.Workers))
	}
	h.res.Detail = fmt.Sprintf("ring restored from ckpt frames, first route %.0fms after restart", h.res.RecoverySeconds*1000)
	return nil
}

// scenarioPartition: one worker's agent is partitioned from the
// coordinator (client.transport armed in the worker process), so its
// renewals die at the transport. The sweep collects the lease, routing
// continues on the survivor, and when the fault schedule exhausts the
// agent's capped backoff re-registers the worker.
func scenarioPartition(h *harness) error {
	const ttl = 2 * time.Second
	h.res.LeaseTTLSeconds = ttl.Seconds()
	coord, err := h.start("", "", "-coordinator", "-lease-ttl", "2s", "-hedge-delay", "100ms")
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	if _, err := h.start("", "", "-register", coord.base, "-worker-id", "steady"); err != nil {
		return fmt.Errorf("steady worker: %w", err)
	}
	// after=1 lets the startup registration through. Each failed agent
	// cycle burns six transport attempts — a renewal and a fallback
	// re-registration, each retried twice by the client — so times=12
	// blacks out two cycles, long enough for the 2s lease to lapse and
	// the sweep (every TTL/2) to collect it before the partition heals.
	spec := fault.FormatSpec(map[string]fault.Options{
		"client.transport": {Mode: fault.Error, After: 1, Times: 12},
	})
	if _, err := h.start("", spec, "-register", coord.base, "-worker-id", "flaky"); err != nil {
		return fmt.Errorf("partitioned worker: %w", err)
	}
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool { return len(st.Workers) >= 2 }); err != nil {
		return err
	}

	// The partition starves the lease; the sweep collects it. Routing
	// keeps answering off the survivor the whole time.
	droppedAt := time.Now()
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool {
		h.route(coord.cl, variantLayout(int(h.requests.Load())%16), false)
		return len(st.Workers) == 1
	}); err != nil {
		return fmt.Errorf("partitioned worker never swept: %w", err)
	}
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool {
		h.route(coord.cl, variantLayout(int(h.requests.Load())%16), false)
		return len(st.Workers) == 2
	}); err != nil {
		return fmt.Errorf("partitioned worker never re-registered: %w", err)
	}
	h.res.RecoverySeconds = time.Since(droppedAt).Seconds()
	if n := h.errors.Load(); n != 0 {
		return fmt.Errorf("%d requests dropped during the partition", n)
	}
	st, err := coord.cl.ClusterStats(context.Background())
	if err != nil {
		return err
	}
	if st.Expired < 1 {
		return fmt.Errorf("sweep never counted the partitioned worker: %+v", st)
	}
	// The backoff caps at the TTL, so sweep-to-rejoin is bounded by the
	// fault schedule plus one capped delay; five lease periods is ample.
	if h.res.RecoverySeconds > 5*ttl.Seconds() {
		return fmt.Errorf("rejoin took %.2fs, budget 5 lease periods", h.res.RecoverySeconds)
	}
	h.res.Detail = "agent blackout: swept then re-registered on capped backoff"
	return nil
}

// scenarioSlowShard: a fault-injected delay makes every fourth forward
// attempt slow; the hedge timer must fire and the fallback answer win,
// with zero failures.
func scenarioSlowShard(h *harness) error {
	spec := fault.FormatSpec(map[string]fault.Options{
		"cluster.forward": {Mode: fault.Delay, Delay: 400 * time.Millisecond, Every: 4},
	})
	coord, err := h.start("", spec, "-coordinator", "-lease-ttl", "5s", "-hedge-delay", "80ms")
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := h.start("", "", "-register", coord.base, "-worker-id", fmt.Sprintf("w%d", i)); err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool { return len(st.Workers) >= 2 }); err != nil {
		return err
	}

	t0 := time.Now()
	for i := 0; i < 12; i++ {
		if _, err := h.route(coord.cl, variantLayout(i), false); err != nil {
			return fmt.Errorf("route %d through slow shard: %w", i, err)
		}
	}
	h.res.RecoverySeconds = time.Since(t0).Seconds()
	st, err := coord.cl.ClusterStats(context.Background())
	if err != nil {
		return err
	}
	if st.Hedges < 1 {
		return fmt.Errorf("delayed shard never triggered a hedge: %+v", st)
	}
	h.res.Detail = fmt.Sprintf("%d hedges (%d wins) over 12 routes", st.Hedges, st.HedgeWins)
	return nil
}

// scenarioCorruptStore: a store-backed worker is SIGKILLed twice. The
// first restart, over the intact directory, must serve the layout from
// disk: a store hit, bit-identical to the cold route, with zero selector
// inferences. The second restart follows a byte flipped in a segment and
// must still cost exactly what it did before — the store's checksums and
// the serve-side tree validation make corruption a cache miss, never a
// wrong answer. A final SIGTERM must drain the standalone daemon to a
// clean exit 0.
func scenarioCorruptStore(h *harness) error {
	dir, err := os.MkdirTemp("", "oarsmt-chaos-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cold, err := h.start("", "", "-store-dir", dir, "-store-flush", "1")
	if err != nil {
		return err
	}
	first, err := h.route(cold.cl, chaosLayout, true)
	if err != nil {
		return err
	}
	if first.StoreHit {
		return fmt.Errorf("cold route reported a store hit")
	}
	// A SIGKILL gives the daemon no chance to flush: the segment write
	// must land before the plug is pulled.
	if err := poll(func() (bool, error) {
		st, err := cold.cl.Stats(context.Background())
		return err == nil && st.StoreWrites > 0, nil
	}); err != nil {
		return fmt.Errorf("store write never landed: %w", err)
	}
	if err := cold.kill(); err != nil {
		return err
	}

	warm, err := h.start("", "", "-store-dir", dir)
	if err != nil {
		return fmt.Errorf("warm restart: %w", err)
	}
	second, err := h.route(warm.cl, chaosLayout, true)
	if err != nil {
		return fmt.Errorf("route after warm restart: %w", err)
	}
	if !second.StoreHit || !second.CacheHit {
		return fmt.Errorf("warm restart missed the store: %+v", second)
	}
	if math.Float64bits(second.Cost) != math.Float64bits(first.Cost) || !reflect.DeepEqual(second.Edges, first.Edges) {
		return fmt.Errorf("warm tree (cost %v) differs from cold tree (cost %v)", second.Cost, first.Cost)
	}
	st, err := warm.cl.Stats(context.Background())
	if err != nil {
		return err
	}
	if st.Inferences != 0 || st.CacheHits < 1 || st.StoreServed < 1 || st.StoreEntries < 1 {
		return fmt.Errorf("warm restart stats: %d inferences (want 0), %d cache hits, %d served, %d entries (want >= 1)",
			st.Inferences, st.CacheHits, st.StoreServed, st.StoreEntries)
	}
	if err := warm.kill(); err != nil {
		return err
	}
	killedAt := time.Now()

	corrupted, err := flipStoreByte(dir)
	if err != nil {
		return err
	}
	last, err := h.start("", "", "-store-dir", dir)
	if err != nil {
		return fmt.Errorf("restart over corrupted store: %w", err)
	}
	resp, err := h.route(last.cl, chaosLayout, true)
	if err != nil {
		return fmt.Errorf("route after corruption: %w", err)
	}
	h.res.RecoverySeconds = time.Since(killedAt).Seconds()
	if resp.Cost != first.Cost {
		return fmt.Errorf("post-corruption cost %v != reference %v — a wrong route survived", resp.Cost, first.Cost)
	}
	if len(resp.Edges) == 0 || resp.Degraded {
		return fmt.Errorf("degenerate post-corruption response: %+v", resp)
	}
	if err := last.drain(); err != nil {
		return err
	}
	h.res.Detail = fmt.Sprintf("warm restart served from disk with 0 inferences; flipped a byte in %s; "+
		"served correct at equal cost (storeHit=%v); SIGTERM exit 0", filepath.Base(corrupted), resp.StoreHit)
	return nil
}

// flipStoreByte flips one byte in the middle of the largest file under
// dir, simulating silent disk corruption.
func flipStoreByte(dir string) (string, error) {
	var target string
	var size int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if info.Size() > size {
			target, size = path, info.Size()
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if target == "" || size == 0 {
		return "", fmt.Errorf("no store file to corrupt under %s", dir)
	}
	b, err := os.ReadFile(target)
	if err != nil {
		return "", err
	}
	b[len(b)/2] ^= 0xff
	return target, os.WriteFile(target, b, 0o644)
}

// scenarioFlap: a worker fails its next three enqueues — exactly the
// breaker threshold — trips its breaker open (with every failed request
// retried on the healthy shard), and recovers through the half-open
// probe once the fault schedule exhausts.
func scenarioFlap(h *harness) error {
	coord, err := h.start("", "", "-coordinator", "-lease-ttl", "5s", "-hedge-delay=-1ms",
		"-breaker-threshold", "3", "-breaker-cooldown", "700ms")
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	spec := fault.FormatSpec(map[string]fault.Options{
		"serve.enqueue": {Mode: fault.Error, Times: 3},
	})
	flaky, err := h.start("", spec, "-register", coord.base, "-worker-id", "flappy")
	if err != nil {
		return fmt.Errorf("flapping worker: %w", err)
	}
	_ = flaky
	if _, err := h.start("", "", "-register", coord.base, "-worker-id", "steady"); err != nil {
		return fmt.Errorf("steady worker: %w", err)
	}
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool { return len(st.Workers) >= 2 }); err != nil {
		return err
	}

	// Route until the breaker trips; every request must still answer
	// (failures on the flapping shard are retried on the steady one).
	trippedAt := time.Time{}
	var i int
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool {
		if _, err := h.route(coord.cl, variantLayout(i%16), false); err != nil {
			return false
		}
		i++
		return st.BreakerOpens >= 1
	}); err != nil {
		return fmt.Errorf("flapping worker never tripped its breaker: %w", err)
	}
	trippedAt = time.Now()
	if n := h.errors.Load(); n != 0 {
		return fmt.Errorf("%d requests dropped while the breaker tripped", n)
	}

	// Keep routing: past the cooldown a probe recloses the breaker.
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool {
		h.route(coord.cl, variantLayout(i%16), false)
		i++
		for _, w := range st.Workers {
			if w.ID == "flappy" {
				return w.Breaker == "closed"
			}
		}
		return false
	}); err != nil {
		return fmt.Errorf("breaker never reclosed through the half-open probe: %w", err)
	}
	h.res.RecoverySeconds = time.Since(trippedAt).Seconds()
	if n := h.errors.Load(); n != 0 {
		return fmt.Errorf("%d requests dropped during breaker recovery", n)
	}
	st, err := coord.cl.ClusterStats(context.Background())
	if err != nil {
		return err
	}
	h.res.Detail = fmt.Sprintf("breaker tripped %d time(s), reclosed %.2fs after trip, %d retries",
		st.BreakerOpens, h.res.RecoverySeconds, st.Retries)
	return nil
}

// scenarioDrain: a coordinator and three workers. A repeated layout
// stays on its worker as a cache hit; variant layouts spread over the
// ring; the owning worker is SIGTERMed while concurrent requests are in
// flight and must exit 0 with none of them dropped, after which its
// layout routes elsewhere; finally every remaining process is SIGTERMed
// and must exit 0. The requests go through a client without retries, so
// a request the drain drops fails the scenario instead of being retried
// into a pass.
func scenarioDrain(h *harness) error {
	h.res.LeaseTTLSeconds = 5
	coord, err := h.start("", "", "-coordinator", "-lease-ttl", "5s", "-hedge-delay", "150ms")
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	workers := map[string]*daemon{}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("w%d", i)
		w, err := h.start("", "", "-register", coord.base, "-worker-id", id)
		if err != nil {
			return fmt.Errorf("worker %s: %w", id, err)
		}
		workers[id] = w
	}
	if err := waitCluster(coord.cl, func(st *wire.ClusterStats) bool { return len(st.Workers) >= 3 }); err != nil {
		return fmt.Errorf("3 workers never registered: %w", err)
	}
	strict, err := client.New(client.Config{BaseURL: coord.base, Timeout: 60 * time.Second})
	if err != nil {
		return err
	}

	// Affinity: the repeat lands on the same worker as its cache hit.
	first, err := h.route(strict, chaosLayout, false)
	if err != nil {
		return err
	}
	victim := workers[first.Worker]
	if victim == nil {
		return fmt.Errorf("reference layout served by unknown worker %q", first.Worker)
	}
	second, err := h.route(strict, chaosLayout, false)
	if err != nil {
		return err
	}
	if second.Worker != first.Worker || !second.CacheHit || second.Cost != first.Cost {
		return fmt.Errorf("repeat not its shard's cache hit: worker %q then %q, cacheHit %v, cost %v then %v",
			first.Worker, second.Worker, second.CacheHit, first.Cost, second.Cost)
	}

	// Spread: with 64 virtual nodes per worker, twelve distinct keys all
	// landing on one of three shards is vanishingly unlikely.
	served := map[string]bool{}
	for i := 0; i < 12; i++ {
		resp, err := h.route(strict, variantLayout(i), false)
		if err != nil {
			return fmt.Errorf("spread layout %d: %w", i, err)
		}
		served[resp.Worker] = true
	}
	if len(served) < 2 {
		return fmt.Errorf("12 distinct layouts all routed to one worker")
	}

	// Drain under fire: the owner finishes its in-flight work, later
	// requests move shards.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		//oarsmt:allow goroleak(one request each, joined by wg.Wait a few lines down)
		go func() { //oarsmt:allow rawgo(chaos-test plumbing: concurrent load during the drain, joined below)
			defer wg.Done()
			h.route(strict, chaosLayout, false)
		}()
	}
	drainedAt := time.Now()
	if err := victim.drain(); err != nil {
		return fmt.Errorf("worker %q: %w", first.Worker, err)
	}
	wg.Wait()
	if n := h.errors.Load(); n != 0 {
		return fmt.Errorf("%d of %d requests dropped during the drain of %q", n, h.requests.Load(), first.Worker)
	}
	moved, err := h.route(strict, chaosLayout, false)
	if err != nil {
		return fmt.Errorf("route after the drain: %w", err)
	}
	h.res.RecoverySeconds = time.Since(drainedAt).Seconds()
	if moved.Worker == first.Worker || moved.Cost != first.Cost {
		return fmt.Errorf("after the drain: served by %q at cost %v, want another worker at cost %v",
			moved.Worker, moved.Cost, first.Cost)
	}
	st, err := coord.cl.ClusterStats(context.Background())
	if err != nil {
		return err
	}
	if st.Drained < 1 || st.Completed < 10 {
		return fmt.Errorf("coordinator stats after the drain: %d drained, %d completed (want >= 1, >= 10)",
			st.Drained, st.Completed)
	}

	// Clean shutdown: every remaining process drains to exit 0.
	for id, w := range workers {
		if id == first.Worker {
			continue
		}
		if err := w.drain(); err != nil {
			return fmt.Errorf("worker %q: %w", id, err)
		}
	}
	if err := coord.drain(); err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	h.res.Detail = fmt.Sprintf("affinity on %s; spread over %d workers; %s drained under fire, layout moved to %s; fleet exited 0",
		first.Worker, len(served), first.Worker, moved.Worker)
	return nil
}

// poll re-evaluates cond on a bounded deterministic backoff (10ms
// doubling to 640ms, 80 tries, about 48s) until it holds, so a wait
// resolves the same way on a loaded CI box as on a fast laptop. An error
// from cond ends the wait at once.
func poll(cond func() (bool, error)) error {
	delay := 10 * time.Millisecond
	for i := 0; i < 80; i++ {
		if ok, err := cond(); ok || err != nil {
			return err
		}
		time.Sleep(delay)
		if delay *= 2; delay > 640*time.Millisecond {
			delay = 640 * time.Millisecond
		}
	}
	return errors.New("condition never held")
}

// waitCluster polls the coordinator's stats until cond holds.
func waitCluster(cl *client.Client, cond func(*wire.ClusterStats) bool) error {
	var last *wire.ClusterStats
	err := poll(func() (bool, error) {
		st, err := cl.ClusterStats(context.Background())
		if err != nil {
			return false, nil
		}
		last = st
		return cond(st), nil
	})
	if err != nil {
		return fmt.Errorf("%w (last stats: %+v)", err, last)
	}
	return nil
}

// freeAddr reserves then releases a loopback port; the tiny reuse race
// is acceptable for a chaos driver.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}
