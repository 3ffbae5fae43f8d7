package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oarsmt/client"
	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
	"oarsmt/internal/nn"
	"oarsmt/internal/selector"
	"oarsmt/internal/serve"
	"oarsmt/wire"
)

// clusterLayout is the 3x3x2 two-pin layout the cluster tests route.
const clusterLayout = `{"name":"t","grid":{"h":3,"v":3,"m":2,"viaCost":2,` +
	`"dx":[1,1],"dy":[1,1],"pins":[0,8]}}`

// fakeClock is an injectable lease clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func newTestCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// fakeWorker stands up an httptest worker answering /v1/route with the
// given handler and registers it with the coordinator.
func fakeWorker(t *testing.T, c *Coordinator, id string, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	if _, err := c.register(wire.RegisterRequest{ID: id, Addr: srv.URL}); err != nil {
		t.Fatal(err)
	}
	return srv
}

func writeFakeRoute(w http.ResponseWriter, cost float64) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(wire.RouteResponse{Cost: cost, NumEdges: 1})
}

func instantWorker(cost float64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeFakeRoute(w, cost)
	}
}

// gatedWorker blocks each request until release closes (draining the
// body first so the server can notice a client disconnect), signalling
// every arrival on arrived.
func gatedWorker(t *testing.T, cost float64) (h http.HandlerFunc, arrived chan struct{}, release func()) {
	t.Helper()
	arrived = make(chan struct{}, 16)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	h = func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		select {
		case <-gate:
		case <-r.Context().Done():
			return
		}
		writeFakeRoute(w, cost)
	}
	return h, arrived, release
}

func routeReq() *wire.RouteRequest {
	return &wire.RouteRequest{Layout: json.RawMessage(clusterLayout)}
}

// TestForwardNoWorkers: an empty cluster sheds retryably, so a client
// in front of the coordinator backs off instead of failing hard.
func TestForwardNoWorkers(t *testing.T) {
	c := newTestCoord(t, Config{})
	_, err := c.forward(context.Background(), "k", routeReq())
	if !errors.Is(err, errs.ErrTransient) {
		t.Fatalf("forward on empty cluster = %v, want ErrTransient", err)
	}
}

// TestRegisterValidation: registration rejects missing identity and
// protocol versions outside the supported window.
func TestRegisterValidation(t *testing.T) {
	c := newTestCoord(t, Config{})
	if _, err := c.register(wire.RegisterRequest{Addr: "http://x"}); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Errorf("register without id = %v, want ErrInvalidConfig", err)
	}
	if _, err := c.register(wire.RegisterRequest{ID: "w"}); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Errorf("register without addr = %v, want ErrInvalidConfig", err)
	}
	if _, err := c.register(wire.RegisterRequest{ID: "w", Addr: "http://x", Proto: 99}); !errors.Is(err, errs.ErrUnsupportedProto) {
		t.Errorf("register proto 99 = %v, want ErrUnsupportedProto", err)
	}
}

// TestLeaseExpiryMidRequest: a lease lapsing while a forward is in
// flight must not kill that forward — eligibility is decided at pick
// time — but the next request finds no live worker.
func TestLeaseExpiryMidRequest(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoord(t, Config{LeaseTTL: time.Second, HedgeDelay: -1, now: clock.now})
	h, arrived, release := gatedWorker(t, 7)
	fakeWorker(t, c, "w1", h)

	type result struct {
		resp *wire.RouteResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := c.forward(context.Background(), "k", routeReq())
		done <- result{resp, err}
	}()
	<-arrived // the forward is now in flight on w1

	clock.advance(2 * time.Second) // the lease lapses mid-request
	c.collectExpired()
	if n := len(c.Workers()); n != 0 {
		t.Fatalf("expired worker still registered: %d workers", n)
	}
	if got := c.Stats().Expired; got != 1 {
		t.Errorf("expired counter = %d, want 1", got)
	}

	release()
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight forward killed by lease expiry: %v", r.err)
	}
	if r.resp.Cost != 7 || r.resp.Worker != "w1" {
		t.Errorf("in-flight forward answered %+v", r.resp)
	}

	if _, err := c.forward(context.Background(), "k", routeReq()); !errors.Is(err, errs.ErrTransient) {
		t.Fatalf("forward after expiry = %v, want ErrTransient (no live workers)", err)
	}
}

// TestDrainWithInFlightHedge: the primary shard is mid-request when it
// is drained; the armed hedge still fires to the fallback and wins, and
// every subsequent request avoids the draining shard.
func TestDrainWithInFlightHedge(t *testing.T) {
	c := newTestCoord(t, Config{HedgeDelay: 10 * time.Millisecond})
	slowH, arrived, release := gatedWorker(t, 1)

	// Work out which id the key hashes to before wiring the handlers:
	// the gated handler plays the primary, the instant one the fallback.
	probe := newRing(virtualNodes)
	probe.add("w1")
	probe.add("w2")
	order := probe.pick("k", 2)
	primaryID, fallbackID := order[0], order[1]
	fakeWorker(t, c, primaryID, slowH)
	fakeWorker(t, c, fallbackID, instantWorker(2))

	type result struct {
		resp *wire.RouteResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := c.forward(context.Background(), "k", routeReq())
		done <- result{resp, err}
	}()
	<-arrived // primary holds the request
	if err := c.drain(primaryID); err != nil {
		t.Fatal(err)
	}

	r := <-done // the hedge answers while the primary is still stuck
	if r.err != nil {
		t.Fatalf("hedged forward failed: %v", r.err)
	}
	if !r.resp.Hedged || r.resp.Worker != fallbackID || r.resp.Cost != 2 {
		t.Errorf("resp = %+v, want hedged cost-2 answer from %s", r.resp, fallbackID)
	}
	release()

	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 || st.Drained != 1 {
		t.Errorf("stats hedges=%d hedgeWins=%d drained=%d, want 1/1/1", st.Hedges, st.HedgeWins, st.Drained)
	}
	for i := 0; i < 5; i++ {
		resp, err := c.forward(context.Background(), "k", routeReq())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Worker != fallbackID {
			t.Fatalf("request %d routed to draining shard %s", i, resp.Worker)
		}
	}
}

// TestSlowShardTriggersHedge: a fault-injected delay on the first
// forward makes the primary shard slow; the hedge timer fires and the
// fallback's answer wins.
func TestSlowShardTriggersHedge(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	c := newTestCoord(t, Config{HedgeDelay: 15 * time.Millisecond})
	probe := newRing(virtualNodes)
	probe.add("w1")
	probe.add("w2")
	order := probe.pick("k", 2)
	fakeWorker(t, c, order[0], instantWorker(1))
	fakeWorker(t, c, order[1], instantWorker(2))

	fault.Set("cluster.forward", fault.Options{Mode: fault.Delay, Delay: 2 * time.Second, Times: 1})
	start := time.Now()
	resp, err := c.forward(context.Background(), "k", routeReq())
	if err != nil {
		t.Fatalf("forward with slow primary failed: %v", err)
	}
	if !resp.Hedged || resp.Worker != order[1] {
		t.Errorf("resp = %+v, want hedged answer from %s", resp, order[1])
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedged answer took %v — waited out the slow shard instead of hedging", elapsed)
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("stats hedges=%d hedgeWins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
}

// TestFailedShardPromotesRetry: with hedging disabled, a retryably
// failing primary is retried on the fallback shard immediately.
func TestFailedShardPromotesRetry(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	c := newTestCoord(t, Config{HedgeDelay: -1})
	probe := newRing(virtualNodes)
	probe.add("w1")
	probe.add("w2")
	order := probe.pick("k", 2)
	fakeWorker(t, c, order[0], instantWorker(1))
	fakeWorker(t, c, order[1], instantWorker(2))

	fault.Set("cluster.forward", fault.Options{Mode: fault.Error, Times: 1})
	resp, err := c.forward(context.Background(), "k", routeReq())
	if err != nil {
		t.Fatalf("forward with failing primary: %v", err)
	}
	if resp.Worker != order[1] {
		t.Errorf("resp = %+v, want answer from fallback %s", resp, order[1])
	}
	st := c.Stats()
	if st.Retries != 1 || st.Hedges != 0 {
		t.Errorf("stats retries=%d hedges=%d, want 1/0", st.Retries, st.Hedges)
	}
	if st.Workers[0].Errors+st.Workers[1].Errors != 1 {
		t.Errorf("worker error counters = %+v, want exactly one error", st.Workers)
	}
}

// TestReRegisterKeepsIdentity: a worker restarting on a new port keeps
// its ring points — the shard follows the id, not the address.
func TestReRegisterKeepsIdentity(t *testing.T) {
	c := newTestCoord(t, Config{HedgeDelay: -1})
	fakeWorker(t, c, "w1", instantWorker(1))

	moved := httptest.NewServer(instantWorker(9))
	t.Cleanup(moved.Close)
	if _, err := c.register(wire.RegisterRequest{ID: "w1", Addr: moved.URL}); err != nil {
		t.Fatal(err)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].Addr != moved.URL {
		t.Fatalf("workers after move = %+v, want one worker at the new address", ws)
	}
	resp, err := c.forward(context.Background(), "k", routeReq())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cost != 9 || resp.Worker != "w1" {
		t.Errorf("resp = %+v, want cost-9 answer from the moved worker", resp)
	}
}

// TestHedgeTimerAfterRetryDoesNotHang: the primary fails retryably
// before the hedge delay, so the fast-failure path consumes the
// fallback for an immediate retry; when the hedge timer later fires it
// must not count an attempt that was never launched. A regression here
// left race() waiting forever once the retry also failed.
func TestHedgeTimerAfterRetryDoesNotHang(t *testing.T) {
	c := newTestCoord(t, Config{HedgeDelay: 20 * time.Millisecond})
	probe := newRing(virtualNodes)
	probe.add("w1")
	probe.add("w2")
	order := probe.pick("k", 2)

	arrived := make(chan struct{}, 1)
	gate := make(chan struct{})
	fakeWorker(t, c, order[0], func(w http.ResponseWriter, r *http.Request) {
		wire.WriteError(w, errs.ErrQueueFull) // fast retryable failure
	})
	fakeWorker(t, c, order[1], func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		select {
		case <-gate:
		case <-r.Context().Done():
			return
		}
		wire.WriteError(w, errs.ErrQueueFull)
	})

	done := make(chan error, 1)
	go func() {
		_, err := c.forward(context.Background(), "k", routeReq())
		done <- err
	}()
	<-arrived                        // the retry is in flight on the fallback
	time.Sleep(3 * c.cfg.HedgeDelay) // the hedge timer fires with no fallback left
	close(gate)                      // now the retry fails too

	select {
	case err := <-done:
		if !errors.Is(err, errs.ErrQueueFull) {
			t.Fatalf("forward = %v, want ErrQueueFull", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("race() hung after the hedge timer fired with the fallback already consumed")
	}
	st := c.Stats()
	if st.Retries != 1 || st.Hedges != 0 {
		t.Errorf("stats retries=%d hedges=%d, want 1/0 (no phantom hedge)", st.Retries, st.Hedges)
	}
}

// TestReRegisterBadAddressKeepsOld: a re-registration advertising a
// malformed address fails without dropping the existing healthy
// registration.
func TestReRegisterBadAddressKeepsOld(t *testing.T) {
	c := newTestCoord(t, Config{HedgeDelay: -1})
	srv := fakeWorker(t, c, "w1", instantWorker(1))

	if _, err := c.register(wire.RegisterRequest{ID: "w1", Addr: "not-a-url"}); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("register with malformed addr = %v, want ErrInvalidConfig", err)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].Addr != srv.URL {
		t.Fatalf("workers after failed re-register = %+v, want the original registration intact", ws)
	}
	if resp, err := c.forward(context.Background(), "k", routeReq()); err != nil || resp.Worker != "w1" {
		t.Errorf("forward after failed re-register = %+v, %v; want answer from w1", resp, err)
	}
}

// TestSweepSkipsDrainedFromExpiredCount: a drained worker whose lease
// lapses is reclaimed without counting as an unexpected loss.
func TestSweepSkipsDrainedFromExpiredCount(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoord(t, Config{LeaseTTL: time.Second, now: clock.now})
	fakeWorker(t, c, "w1", instantWorker(1))
	if err := c.drain("w1"); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Second)
	c.collectExpired()
	st := c.Stats()
	if len(st.Workers) != 0 {
		t.Fatalf("drained worker not reclaimed: %+v", st.Workers)
	}
	if st.Expired != 0 || st.Drained != 1 {
		t.Errorf("stats expired=%d drained=%d, want 0/1", st.Expired, st.Drained)
	}
	if err := c.drain("w1"); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Errorf("drain of reclaimed worker = %v, want ErrInvalidConfig", err)
	}
}

// errReader fails every read, simulating a client abort mid-body.
type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("aborted") }

// TestCoordinatorBodyErrorMapping is the contract of the shared HTTP
// edge: a worker and a coordinator answer the same bad route requests
// with the same status, wire code and Retry-After. Only an oversized body
// is 413 too_large; every other body, envelope or layout failure is a 400
// invalid_layout. Malformed cluster-plane bodies, oversized ones
// included, are 400 invalid_config.
func TestCoordinatorBodyErrorMapping(t *testing.T) {
	worker := newServeService(t).Handler()
	coord := newTestCoord(t, Config{}).Handler()
	type answer struct {
		status     int
		code       string
		retryAfter string
	}
	post := func(h http.Handler, path string, body io.Reader, proto string) answer {
		req := httptest.NewRequest(http.MethodPost, path, body)
		if proto != "" {
			req.Header.Set(wire.ProtoHeader, proto)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var e wire.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("POST %s: error body %q: %v", path, rec.Body.String(), err)
		}
		return answer{rec.Code, e.Code, rec.Header().Get("Retry-After")}
	}
	envelope := func(layout string) func() io.Reader {
		return func() io.Reader { return strings.NewReader(`{"layout":` + layout + `}`) }
	}
	badLayout := answer{http.StatusBadRequest, "invalid_layout", ""}
	cases := []struct {
		name  string
		body  func() io.Reader
		proto string
		want  answer
	}{
		{"unsupported proto", envelope(clusterLayout), "99", answer{http.StatusBadRequest, "unsupported_proto", ""}},
		{"oversized", func() io.Reader { return bytes.NewReader(make([]byte, wire.MaxBodyBytes+1)) }, "",
			answer{http.StatusRequestEntityTooLarge, "too_large", ""}},
		{"aborted read", func() io.Reader { return errReader{} }, "", badLayout},
		{"non-JSON envelope", func() io.Reader { return strings.NewReader(`{"layout":`) }, "", badLayout},
		{"no layout", func() io.Reader { return strings.NewReader(`{"edges":true}`) }, "", badLayout},
		{"undecodable layout", envelope(`{"grid":{"h":3}}`), "", badLayout},
		{"layout over MaxVolume", envelope(`{"name":"x","grid":{"h":2048,"v":1024,"m":1,` +
			`"viaCost":1,"dx":[],"dy":[],"pins":[0,1]}}`), "", badLayout},
	}
	for _, tc := range cases {
		fromWorker := post(worker, wire.PathRoute, tc.body(), tc.proto)
		fromCoord := post(coord, wire.PathRoute, tc.body(), tc.proto)
		if fromWorker != tc.want || fromCoord != tc.want {
			t.Errorf("%s: worker %+v, coordinator %+v; want both %+v", tc.name, fromWorker, fromCoord, tc.want)
		}
	}

	badConfig := answer{http.StatusBadRequest, "invalid_config", ""}
	oversized := `"` + strings.Repeat("x", wire.MaxBodyBytes) + `"`
	for _, path := range []string{wire.PathRegister, wire.PathLease, wire.PathDrain} {
		for _, body := range []string{``, `{"id":`, `[1]`, oversized} {
			if got := post(coord, path, strings.NewReader(body), ""); got != badConfig {
				t.Errorf("POST %s %.20q = %+v, want %+v", path, body, got, badConfig)
			}
		}
	}
}

// TestUnversionedPathsGone: the pre-protocol aliases (POST /route, GET
// /healthz, /stats, /metrics) finished their deprecation cycle and are
// not served by a worker or by a coordinator, while each versioned twin
// still answers, with the protocol header (a GET of the route path with
// 405).
func TestUnversionedPathsGone(t *testing.T) {
	worker := newServeWorker(t)
	front := httptest.NewServer(newTestCoord(t, Config{}).Handler())
	t.Cleanup(front.Close)
	get := func(url string) *http.Response {
		t.Helper()
		res, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res
	}
	for _, base := range []string{worker.URL, front.URL} {
		res, err := http.Post(base+"/route", "application/json", strings.NewReader(clusterLayout))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s/route = %d, want 404", base, res.StatusCode)
		}
		if res := get(base + wire.PathRoute); res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s%s = %d, want 405", base, wire.PathRoute, res.StatusCode)
		}
		for _, p := range []struct{ old, v1 string }{
			{"/healthz", wire.PathHealthz},
			{"/stats", wire.PathStats},
			{"/metrics", wire.PathMetrics},
		} {
			if res := get(base + p.old); res.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s%s = %d, want 404", base, p.old, res.StatusCode)
			}
			res := get(base + p.v1)
			if res.StatusCode != http.StatusOK || res.Header.Get(wire.ProtoHeader) == "" {
				t.Errorf("GET %s%s = %d, proto header %q; want 200 with the header",
					base, p.v1, res.StatusCode, res.Header.Get(wire.ProtoHeader))
			}
		}
	}
}

// newServeService builds a real routing worker on a small random
// selector.
func newServeService(t *testing.T) *serve.Service {
	t.Helper()
	sel, err := selector.NewRandom(rand.New(rand.NewSource(1)),
		nn.UNetConfig{InChannels: selector.NumFeatures, Base: 2, Depth: 1, Kernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewService(serve.Config{Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// newServeWorker stands up a real routing worker (a serve.Service behind
// httptest) for end-to-end coordinator tests.
func newServeWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newServeService(t).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestClusterEndToEnd drives the full stack through the public client:
// real workers register over the wire, routing goes coordinator →
// shard → back, identical layouts keep cache affinity, drains move
// traffic, and the cluster plane rejects unknown renewals.
func TestClusterEndToEnd(t *testing.T) {
	c := newTestCoord(t, Config{HedgeDelay: -1})
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)
	cl, err := client.New(client.Config{BaseURL: front.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for i := 1; i <= 3; i++ {
		w := newServeWorker(t)
		if _, err := cl.Register(ctx, wire.RegisterRequest{
			ID: fmt.Sprintf("w%d", i), Addr: w.URL, Proto: wire.Version,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("coordinator healthz: %v", err)
	}

	first, err := cl.RouteJSON(ctx, []byte(clusterLayout), &client.RouteOptions{Edges: true})
	if err != nil {
		t.Fatalf("routed through coordinator: %v", err)
	}
	if first.Worker == "" || first.Cost <= 0 || len(first.Edges) != first.NumEdges {
		t.Fatalf("degenerate clustered response: %+v", first)
	}
	again, err := cl.RouteJSON(ctx, []byte(clusterLayout), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Worker != first.Worker {
		t.Errorf("same layout moved shards: %s then %s", first.Worker, again.Worker)
	}
	if !again.CacheHit {
		t.Error("repeat of an identical layout missed the shard's cache")
	}
	if again.Cost != first.Cost {
		t.Errorf("cost changed across shard-affine repeats: %v then %v", first.Cost, again.Cost)
	}

	// Distinct layouts spread across shards.
	workersSeen := map[string]bool{}
	for i := 0; i < 8; i++ {
		l := fmt.Sprintf(`{"name":"v%d","grid":{"h":3,"v":3,"m":2,"viaCost":2,`+
			`"dx":[1,1],"dy":[1,1],"pins":[%d,8]}}`, i, i)
		resp, err := cl.RouteJSON(ctx, []byte(l), nil)
		if err != nil {
			t.Fatal(err)
		}
		workersSeen[resp.Worker] = true
	}
	if len(workersSeen) < 2 {
		t.Errorf("8 distinct layouts all landed on %v — no spread", workersSeen)
	}

	// Drain the affine shard: the layout moves, the cluster keeps
	// answering.
	if err := cl.Drain(ctx, first.Worker); err != nil {
		t.Fatal(err)
	}
	moved, err := cl.RouteJSON(ctx, []byte(clusterLayout), nil)
	if err != nil {
		t.Fatalf("route after drain failed: %v", err)
	}
	if moved.Worker == first.Worker {
		t.Errorf("drained shard %s still serving", first.Worker)
	}

	if _, err := cl.RenewLease(ctx, "ghost"); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Errorf("renew of unknown worker = %v, want ErrInvalidConfig", err)
	}

	st, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 3 || st.Completed < 10 || st.Drained != 1 {
		t.Errorf("implausible cluster stats: %+v", st)
	}
	mtext, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"oarsmt_cluster_forwards", "oarsmt_cluster_workers", "# TYPE oarsmt_cluster_latency histogram"} {
		if !strings.Contains(mtext, want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}

	// Malformed and oversized layouts are rejected before any forward.
	if _, err := cl.RouteJSON(ctx, []byte(`{"grid":{}}`), nil); !errors.Is(err, errs.ErrInvalidLayout) {
		t.Errorf("malformed layout through coordinator = %v, want ErrInvalidLayout", err)
	}
}
