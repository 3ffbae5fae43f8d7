package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"oarsmt/internal/errs"
	"oarsmt/internal/layout"
	"oarsmt/wire"
)

// RouteOptions are the per-request knobs of a Route call; the zero
// value asks for the server defaults and a summary-only response.
type RouteOptions struct {
	// Timeout caps the server-side routing deadline (the request's
	// timeoutMillis field); 0 leaves the server default in force. This
	// is distinct from Config.Timeout, which bounds the whole HTTP
	// exchange client-side.
	Timeout time.Duration
	// Edges asks for the full routed tree in the response.
	Edges bool
}

// Route routes one layout and returns the typed response. The layout is
// encoded in the canonical JSON grid form; callers holding pre-encoded
// layout JSON should use RouteJSON instead.
func (c *Client) Route(ctx context.Context, in *layout.Instance, opts *RouteOptions) (*wire.RouteResponse, error) {
	var buf bytes.Buffer
	if err := layout.EncodeInstance(&buf, in); err != nil {
		return nil, err
	}
	return c.RouteJSON(ctx, buf.Bytes(), opts)
}

// RouteJSON routes a layout already encoded in the layout JSON format,
// under the client's retry policy.
func (c *Client) RouteJSON(ctx context.Context, layoutJSON []byte, opts *RouteOptions) (*wire.RouteResponse, error) {
	if opts == nil {
		opts = &RouteOptions{}
	}
	if !json.Valid(layoutJSON) {
		// Catch it before the envelope marshal garbles the diagnosis;
		// the server would answer ErrInvalidLayout for the same bytes.
		return nil, fmt.Errorf("%w: layout is not valid JSON", errs.ErrInvalidLayout)
	}
	req := wire.RouteRequest{
		Layout:        json.RawMessage(layoutJSON),
		TimeoutMillis: opts.Timeout.Milliseconds(),
		Edges:         opts.Edges,
	}
	if opts.Timeout > 0 && req.TimeoutMillis == 0 {
		// A sub-millisecond timeout must not silently become "server
		// default"; round it up to the smallest wire-expressible value.
		req.TimeoutMillis = 1
	}
	var resp wire.RouteResponse
	if err := c.do(ctx, http.MethodPost, wire.PathRoute, &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
