// Package client is the supported way to talk to an oarsmt serving
// process — a single worker daemon or a cluster coordinator; the two are
// indistinguishable through this API. It speaks the versioned wire
// protocol (package wire), maps error bodies back onto the sentinel
// errors re-exported by the root oarsmt package (so
// errors.Is(err, oarsmt.ErrQueueFull) holds across the network exactly
// as it does in-process), and owns the reliability mechanics every
// caller otherwise reimplements: per-call timeouts, deterministic
// retry backoff on transient failures. Hedging is the coordinator's: it
// races a slow shard against the next ring replica, which a second
// request to the same coordinator could not reach.
//
// Nothing else in the repository issues raw HTTP to serve endpoints;
// the coordinator, the chaos harness, the serving benchmark and the
// serving tests all go through this package.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
	"oarsmt/wire"
)

// maxResponseBytes bounds how much of a response body the client reads;
// a full routed tree on the largest accepted layout fits well under it.
const maxResponseBytes = 64 << 20

// Config configures a Client. The zero value of every field except
// BaseURL is usable.
type Config struct {
	// BaseURL is the server's root, e.g. "http://127.0.0.1:8080".
	// Required.
	BaseURL string

	// HTTPClient issues the requests; nil uses a private default client
	// (sharing http.DefaultClient across tenants would share its
	// connection pool limits too).
	HTTPClient *http.Client

	// Timeout bounds each call that arrives without a context deadline;
	// 0 means no client-side bound. A context deadline always wins.
	Timeout time.Duration

	// Retries is how many additional attempts a failed call gets when
	// the failure is retryable (transient faults, queue backpressure,
	// connection errors). 0 disables retries.
	Retries int

	// Backoff is the delay before the first retry, doubling each
	// attempt; 0 defaults to 50ms. The schedule is deterministic — no
	// jitter — so tests and replays see identical timing.
	Backoff time.Duration

	// sleep is the retry clock, injectable by tests to run the
	// deterministic backoff schedule without real waiting.
	sleep func(context.Context, time.Duration) error
}

// Client is a thread-safe handle to one serving endpoint.
type Client struct {
	cfg  Config
	base string
	hc   *http.Client
}

// New validates the configuration and returns a client. No connection
// is made until the first call.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("%w: client: BaseURL is required", errs.ErrInvalidConfig)
	}
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("%w: client: BaseURL %q: want an absolute URL like http://host:port", errs.ErrInvalidConfig, cfg.BaseURL)
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("%w: client: Retries %d: want >= 0", errs.ErrInvalidConfig, cfg.Retries)
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.sleep == nil {
		cfg.sleep = ctxSleep
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{cfg: cfg, base: strings.TrimRight(u.String(), "/"), hc: hc}, nil
}

// Retryable reports whether an error is worth retrying against the same
// endpoint: transient faults (including injected ones and connection
// errors, which the client wraps as ErrTransient), queue backpressure,
// and a draining server. Timeouts and invalid inputs are not — the
// retry would spend the same budget to fail the same way.
func Retryable(err error) bool {
	return errors.Is(err, errs.ErrTransient) ||
		errors.Is(err, errs.ErrQueueFull) ||
		errors.Is(err, errs.ErrClosed)
}

// ctxSleep waits d or until the context is done, whichever is first.
func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do runs one JSON call with the client's timeout and retry policy.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("%w: client: encoding %s request: %v", errs.ErrInternal, path, err)
		}
	}
	if c.cfg.Timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.cfg.Timeout)
			defer cancel()
		}
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = c.once(ctx, method, path, body, out)
		if err == nil || attempt >= c.cfg.Retries || !Retryable(err) {
			return err
		}
		if c.cfg.sleep(ctx, c.cfg.Backoff<<attempt) != nil {
			return err
		}
	}
}

// once issues a single request and maps the response or failure onto
// the sentinel contract.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("%w: client: building %s request: %v", errs.ErrInternal, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	wire.SetProto(req.Header)
	// client.transport simulates a network partition: every attempt fails
	// before touching the wire while the fault is armed. Injected errors
	// classify as transient, so they exercise the real retry path.
	if ferr := fault.Inject("client.transport"); ferr != nil {
		return fmt.Errorf("client: transport: %w", ferr)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// The transport reports context expiry as a URL error; surface
		// the deadline itself so it classifies as a timeout, and wrap
		// everything else (refused connections, resets) as transient.
		if ctx.Err() != nil {
			return errs.Classify(ctx.Err())
		}
		return fmt.Errorf("%w: client: %v", errs.ErrTransient, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		if ctx.Err() != nil {
			return errs.Classify(ctx.Err())
		}
		return fmt.Errorf("%w: client: reading %s response: %v", errs.ErrTransient, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return wire.AsError(resp.StatusCode, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%w: client: decoding %s response: %v", errs.ErrInternal, path, err)
		}
	}
	return nil
}

// get runs a GET returning the raw body (for text endpoints).
func (c *Client) getText(ctx context.Context, path string) (string, error) {
	var cancel context.CancelFunc = func() {}
	if c.cfg.Timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			ctx, cancel = context.WithTimeout(ctx, c.cfg.Timeout)
		}
	}
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", fmt.Errorf("%w: client: building %s request: %v", errs.ErrInternal, path, err)
	}
	wire.SetProto(req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return "", errs.Classify(ctx.Err())
		}
		return "", fmt.Errorf("%w: client: %v", errs.ErrTransient, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return "", fmt.Errorf("%w: client: reading %s response: %v", errs.ErrTransient, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return "", wire.AsError(resp.StatusCode, b)
	}
	return string(b), nil
}

// Healthz reports whether the server is accepting work: nil while
// serving, an error wrapping ErrClosed while draining, a transport
// error when unreachable.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, wire.PathHealthz, nil, nil)
}

// Stats fetches a worker's counter snapshot.
func (c *Client) Stats(ctx context.Context) (*wire.Stats, error) {
	var st wire.Stats
	if err := c.do(ctx, http.MethodGet, wire.PathStats, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ClusterStats fetches a coordinator's snapshot. Calling it on a plain
// worker decodes the overlapping fields and leaves Workers empty.
func (c *Client) ClusterStats(ctx context.Context) (*wire.ClusterStats, error) {
	var st wire.ClusterStats
	if err := c.do(ctx, http.MethodGet, wire.PathStats, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	return c.getText(ctx, wire.PathMetrics)
}
