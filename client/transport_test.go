package client

// Partition behaviour: the client.transport fault point fails attempts
// before they touch the wire, standing in for a severed network. These
// tests pin that the retry machinery treats an injected partition
// exactly like a real one.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
	"oarsmt/wire"
)

// TestTransportFaultRetried: a two-attempt partition is ridden out by
// the retry policy on the deterministic backoff schedule; the server
// sees only the one attempt that got through.
func TestTransportFaultRetried(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	var calls atomic.Int64
	var slept []time.Duration
	cl := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"cost": 3}`))
	}), func(c *Config) {
		c.Retries = 3
		c.sleep = func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		}
	})

	fault.Set("client.transport", fault.Options{Mode: fault.Error, Times: 2})
	resp, err := cl.RouteJSON(context.Background(), []byte(`{}`), nil)
	if err != nil {
		t.Fatalf("partitioned route failed through retries: %v", err)
	}
	if resp.Cost != 3 {
		t.Errorf("resp = %+v", resp)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls, want 1 (two attempts died at the transport)", calls.Load())
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("backoff schedule %v, want %v", slept, want)
	}
}

// TestTransportFaultExhaustsRetries: a total partition surfaces as a
// transient, injected error once the retry budget is spent — and the
// server never hears about any of it.
func TestTransportFaultExhaustsRetries(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	var calls atomic.Int64
	cl := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
	}), func(c *Config) {
		c.Retries = 2
		c.sleep = func(context.Context, time.Duration) error { return nil }
	})

	fault.Set("client.transport", fault.Options{Mode: fault.Error})
	_, err := cl.RouteJSON(context.Background(), []byte(`{}`), nil)
	if !errors.Is(err, errs.ErrTransient) {
		t.Fatalf("total partition = %v, want ErrTransient", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Errorf("injected partition lost its ErrInjected mark: %v", err)
	}
	if calls.Load() != 0 {
		t.Errorf("server saw %d calls through a total partition", calls.Load())
	}
}

// TestProtoDowngradeWindow: the server accepts every version in
// [MinVersion, Version] — the downgrade window that lets an old worker
// talk to a new coordinator — plus the unversioned pre-protocol form,
// and rejects versions outside it with the unsupported_proto contract.
func TestProtoDowngradeWindow(t *testing.T) {
	srv := newServeBackend(t)
	body := func() *strings.Reader { return strings.NewReader(`{"layout":` + tinyLayout + `}`) }
	send := func(t *testing.T, proto string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+wire.PathRoute, body())
		if err != nil {
			t.Fatal(err)
		}
		if proto != "" {
			req.Header.Set(wire.ProtoHeader, proto)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { res.Body.Close() })
		return res
	}

	for v := wire.MinVersion; v <= wire.Version; v++ {
		if res := send(t, strconv.Itoa(v)); res.StatusCode != http.StatusOK {
			t.Errorf("version %d inside the window = %d, want 200", v, res.StatusCode)
		}
	}
	if res := send(t, ""); res.StatusCode != http.StatusOK {
		t.Errorf("unversioned request = %d, want 200", res.StatusCode)
	}

	for _, bad := range []string{strconv.Itoa(wire.MinVersion - 1), strconv.Itoa(wire.Version + 1), "bogus"} {
		res := send(t, bad)
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("version %q = %d, want 400", bad, res.StatusCode)
			continue
		}
		var e struct {
			Code string `json:"code"`
		}
		if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Code != "unsupported_proto" {
			t.Errorf("version %q code = %q, want unsupported_proto", bad, e.Code)
		}
		if s := wire.Sentinel(e.Code); !errors.Is(s, errs.ErrUnsupportedProto) {
			t.Errorf("sentinel for %q = %v, want ErrUnsupportedProto", e.Code, s)
		}
	}
}
