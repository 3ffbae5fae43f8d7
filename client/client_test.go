package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oarsmt/internal/errs"
	"oarsmt/internal/nn"
	"oarsmt/internal/selector"
	"oarsmt/internal/serve"
	"oarsmt/wire"
)

func newTestClient(t *testing.T, h http.Handler, mut ...func(*Config)) *Client {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	cfg := Config{BaseURL: srv.URL}
	for _, m := range mut {
		m(&cfg)
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestNewValidatesConfig(t *testing.T) {
	for _, bad := range []Config{
		{},
		{BaseURL: "not a url"},
		{BaseURL: "/relative/only"},
		{BaseURL: "http://h:1", Retries: -1},
	} {
		if _, err := New(bad); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Errorf("New(%+v) err = %v, want ErrInvalidConfig", bad, err)
		}
	}
	if _, err := New(Config{BaseURL: "http://127.0.0.1:1/"}); err != nil {
		t.Errorf("trailing slash rejected: %v", err)
	}
}

// TestSentinelRoundTrip is the error-contract acceptance test: every
// sentinel in the table — the nine pre-wire ones and the three the wire
// layer added — written by a server through wire.WriteError must come
// back out of the client still matching errors.Is.
func TestSentinelRoundTrip(t *testing.T) {
	sentinels := []struct {
		name string
		err  error
	}{
		{"timeout", errs.ErrTimeout},
		{"queue_full", errs.ErrQueueFull},
		{"invalid_layout", errs.ErrInvalidLayout},
		{"no_path", errs.ErrNoPath},
		{"invalid_model", errs.ErrInvalidModel},
		{"internal", errs.ErrInternal},
		{"transient", errs.ErrTransient},
		{"invalid_tree", errs.ErrInvalidTree},
		{"invalid_config", errs.ErrInvalidConfig},
		{"closed", errs.ErrClosed},
		{"too_large", errs.ErrTooLarge},
		{"unsupported_proto", errs.ErrUnsupportedProto},
	}
	var current atomic.Pointer[error]
	cl := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Wrapped twice to prove depth does not matter on the wire.
		wire.WriteError(w, fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", *current.Load())))
	}))
	for _, tc := range sentinels {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.err
			current.Store(&e)
			_, err := cl.RouteJSON(context.Background(), []byte(`{}`), nil)
			if !errors.Is(err, tc.err) {
				t.Errorf("round-tripped err = %v, does not match %v", err, tc.err)
			}
			// The wire must not conflate sentinels: no *other* sentinel
			// may match, except ErrTimeout's documented equivalence with
			// context.DeadlineExceeded.
			for _, other := range sentinels {
				if other.name == tc.name {
					continue
				}
				if errors.Is(err, other.err) {
					t.Errorf("%s also matches %s", tc.name, other.name)
				}
			}
		})
	}
}

// TestRetryDeterministicBackoff: retryable failures are retried on the
// doubling schedule through the injected sleep; the third attempt wins.
func TestRetryDeterministicBackoff(t *testing.T) {
	var calls atomic.Int64
	var slept []time.Duration
	cl := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			wire.WriteError(w, errs.ErrTransient)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"cost": 1}`))
	}), func(c *Config) {
		c.Retries = 3
		c.sleep = func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		}
	})
	resp, err := cl.RouteJSON(context.Background(), []byte(`{}`), nil)
	if err != nil {
		t.Fatalf("retried request failed: %v", err)
	}
	if resp.Cost != 1 {
		t.Errorf("resp = %+v", resp)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("backoff schedule %v, want %v", slept, want)
	}
}

// TestNoRetryOnNonRetryable: an invalid layout must not be retried —
// the second attempt would spend the same budget to fail the same way.
func TestNoRetryOnNonRetryable(t *testing.T) {
	var calls atomic.Int64
	cl := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		wire.WriteError(w, errs.ErrInvalidLayout)
	}), func(c *Config) { c.Retries = 5 })
	_, err := cl.RouteJSON(context.Background(), []byte(`{}`), nil)
	if !errors.Is(err, errs.ErrInvalidLayout) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("non-retryable error was retried: %d calls", calls.Load())
	}
}

// TestRetriesExhausted: the budget runs out and the transient error
// surfaces.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	cl := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		wire.WriteError(w, errs.ErrQueueFull)
	}), func(c *Config) {
		c.Retries = 2
		c.sleep = func(context.Context, time.Duration) error { return nil }
	})
	_, err := cl.RouteJSON(context.Background(), []byte(`{}`), nil)
	if !errors.Is(err, errs.ErrQueueFull) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (1 + 2 retries)", calls.Load())
	}
}

// TestConnectionErrorIsTransient: a refused connection surfaces as
// ErrTransient so callers' retry logic treats it uniformly.
func TestConnectionErrorIsTransient(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // the port is now dead
	cl, err := New(Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Healthz(context.Background()); !errors.Is(err, errs.ErrTransient) {
		t.Errorf("refused connection err = %v, want ErrTransient", err)
	}
}

// TestClientTimeout: Config.Timeout bounds a hanging call and surfaces
// as ErrTimeout.
func TestClientTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cl := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}), func(c *Config) { c.Timeout = 30 * time.Millisecond })
	_, err := cl.RouteJSON(context.Background(), []byte(`{}`), nil)
	if !errors.Is(err, errs.ErrTimeout) {
		t.Errorf("hung call err = %v, want ErrTimeout", err)
	}
}

// TestProtoHeaderSent: every request advertises the client's protocol
// version.
func TestProtoHeaderSent(t *testing.T) {
	var got atomic.Pointer[string]
	cl := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(wire.ProtoHeader)
		got.Store(&h)
		w.Write([]byte("ok"))
	}))
	if err := cl.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h := got.Load(); h == nil || *h != "1" {
		t.Errorf("request proto header = %v, want \"1\"", got.Load())
	}
}

// tinyLayout is a 3x3x2 two-pin layout that routes in microseconds.
const tinyLayout = `{"name":"t","grid":{"h":3,"v":3,"m":2,"viaCost":2,` +
	`"dx":[1,1],"dy":[1,1],"pins":[0,8]}}`

// newServeBackend stands up a real worker (a serve.Service behind
// httptest) for tests that speak raw HTTP to it.
func newServeBackend(t *testing.T) *httptest.Server {
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
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestProtoNegotiation: a request advertising an unsupported protocol
// version is refused with the unsupported_proto code and a message in
// the body's "error" field; the client-side sentinel matches.
func TestProtoNegotiation(t *testing.T) {
	srv := newServeBackend(t)
	body := `{"layout":` + tinyLayout + `}`
	req, err := http.NewRequest(http.MethodPost, srv.URL+wire.PathRoute, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(wire.ProtoHeader, "99")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("proto 99 = %d, want 400", res.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "unsupported_proto" || e.Error == "" {
		t.Errorf("error body = %+v, want code unsupported_proto and a message", e)
	}
	if s := wire.Sentinel(e.Code); !errors.Is(s, errs.ErrUnsupportedProto) {
		t.Errorf("sentinel for %q = %v", e.Code, s)
	}
}
