package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"oarsmt/client"
	"oarsmt/internal/errs"
	"oarsmt/wire"
)

// smallLayoutJSON is a 3x3x2 grid-form layout with two pins, tiny enough
// for instant routing in HTTP tests.
const smallLayoutJSON = `{"name":"t","grid":{"h":3,"v":3,"m":2,"viaCost":2,` +
	`"dx":[1,1],"dy":[1,1],"pins":[0,8]}}`

// newTestServer stands the service up behind a real HTTP listener and
// returns a wire-protocol client bound to it. All HTTP-level tests talk
// through the client package — the same path every in-repo caller uses —
// so these tests also pin the client↔server contract.
func newTestServer(t *testing.T, cfg Config) (*Service, *client.Client) {
	t.Helper()
	s := newTestService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	cl, err := client.New(client.Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	return s, cl
}

func TestHTTPRoute(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()

	resp, err := cl.RouteJSON(ctx, []byte(smallLayoutJSON), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cost <= 0 || resp.NumEdges == 0 {
		t.Errorf("degenerate response: %+v", resp)
	}
	if resp.Edges != nil {
		t.Error("edges included without Edges option")
	}

	resp2, err := cl.RouteJSON(ctx, []byte(smallLayoutJSON), &client.RouteOptions{Edges: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Edges) != resp2.NumEdges {
		t.Errorf("Edges option returned %d edges, numEdges says %d", len(resp2.Edges), resp2.NumEdges)
	}
	if !resp2.CacheHit {
		t.Error("second identical request missed the cache")
	}
}

func TestHTTPRouteRejectsMalformed(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{"grid":`},
		{"one pin", `{"name":"x","grid":{"h":2,"v":2,"m":1,"viaCost":1,"dx":[1],"dy":[1],"pins":[0]}}`},
		{"oversized grid", `{"name":"x","grid":{"h":9999,"v":9999,"m":99,"viaCost":1,"dx":[],"dy":[],"pins":[0,1]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cl.RouteJSON(context.Background(), []byte(tc.body), nil)
			if !errors.Is(err, errs.ErrInvalidLayout) {
				t.Errorf("err = %v, want ErrInvalidLayout", err)
			}
		})
	}
}

// TestHTTPNegativeTimeout400: a negative timeoutMillis answers 400
// invalid_layout, the code the sentinel table gives ErrInvalidLayout, and
// the client sees that sentinel.
func TestHTTPNegativeTimeout400(t *testing.T) {
	s, cl := newTestServer(t, Config{})
	body, err := json.Marshal(wire.RouteRequest{Layout: json.RawMessage(smallLayoutJSON), TimeoutMillis: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, wire.PathRoute, strings.NewReader(string(body)))
	wire.SetProto(req.Header)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var e wire.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest || e.Code != "invalid_layout" {
		t.Errorf("timeoutMillis -1: status %d, body %q; want 400 invalid_layout", rec.Code, rec.Body)
	}
	_, err = cl.RouteJSON(context.Background(), []byte(smallLayoutJSON), &client.RouteOptions{Timeout: -time.Second})
	if !errors.Is(err, errs.ErrInvalidLayout) {
		t.Errorf("client with a negative timeout: err = %v, want ErrInvalidLayout", err)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	gate := make(chan struct{})
	s, cl := newTestServer(t, Config{QueueSize: 1, CacheSize: -1, gate: gate})
	gateOpen := false
	defer func() {
		if !gateOpen {
			close(gate)
		}
	}()

	// Occupy the single queue slot (the scheduler is gated, so the job
	// stays queued until the gate opens).
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		cl.RouteJSON(context.Background(), []byte(smallLayoutJSON), nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	other := `{"name":"u","grid":{"h":3,"v":3,"m":2,"viaCost":2,"dx":[1,1],"dy":[1,1],"pins":[1,7]}}`
	_, err := cl.RouteJSON(context.Background(), []byte(other), nil)
	if !errors.Is(err, errs.ErrQueueFull) {
		t.Fatalf("overflow request err = %v, want ErrQueueFull", err)
	}
	close(gate) // release the scheduler so the held request completes
	gateOpen = true
	<-hold
}

func TestHTTPTimeout504(t *testing.T) {
	gate := make(chan struct{})
	_, cl := newTestServer(t, Config{gate: gate})
	defer close(gate)

	// The scheduler is gated, so the 1ms server-side deadline always
	// expires queued; the client must surface the server's 504 as
	// ErrTimeout.
	_, err := cl.RouteJSON(context.Background(), []byte(smallLayoutJSON), &client.RouteOptions{Timeout: time.Millisecond})
	if !errors.Is(err, errs.ErrTimeout) {
		t.Fatalf("expired request err = %v, want ErrTimeout", err)
	}
}

func TestHTTPHealthAndStats(t *testing.T) {
	s, cl := newTestServer(t, Config{})
	ctx := context.Background()

	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	if _, err := cl.RouteJSON(ctx, []byte(smallLayoutJSON), nil); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed < 1 || st.QueueCapacity == 0 || st.UptimeSeconds < 0 {
		t.Errorf("implausible stats: %+v", st)
	}

	s.Close()
	if err := cl.Healthz(ctx); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("post-close healthz err = %v, want ErrClosed", err)
	}
}

// TestHTTPMetrics checks the Prometheus exposition: after one routed
// request the service counters and the process-wide routing counters both
// appear under their oarsmt_-prefixed names, and core_steiner_proposed
// rose by the route's proposal.
func TestHTTPMetrics(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()

	proposed := func() int64 {
		t.Helper()
		text, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, "oarsmt_core_steiner_proposed "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("/metrics has no oarsmt_core_steiner_proposed sample\nexposition:\n%s", text)
		return 0
	}
	before := proposed()
	fourPins := strings.Replace(smallLayoutJSON, `"pins":[0,8]`, `"pins":[0,8,2,6]`, 1)
	resp, err := cl.RouteJSON(ctx, []byte(fourPins), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := proposed() - before; resp.Proposed == 0 || got != int64(resp.Proposed) {
		t.Errorf("core_steiner_proposed rose by %d, route proposed %d", got, resp.Proposed)
	}

	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE oarsmt_serve_submitted counter",
		"oarsmt_serve_completed 1",
		"# TYPE oarsmt_serve_queue_capacity gauge",
		"# TYPE oarsmt_serve_latency histogram",
		"oarsmt_serve_latency_bucket{le=\"+Inf\"} 1",
		// Process-wide registry: the routed request ran Dijkstra searches.
		"# TYPE oarsmt_route_searches counter",
		"# TYPE oarsmt_route_retrace_skips counter",
		"# TYPE oarsmt_core_steiner_proposed counter",
		"# TYPE oarsmt_core_steiner_kept counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\nexposition:\n%s", want, text)
		}
	}
}
