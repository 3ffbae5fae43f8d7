package serve

import (
	"bytes"
	"context"
	"net/http"
	"time"

	"oarsmt/internal/layout"
	"oarsmt/internal/obs"
	"oarsmt/wire"
)

// Handler returns the service's HTTP surface, the versioned wire
// protocol:
//
//	POST /v1/route    — route one layout (wire.RouteRequest envelope:
//	                    the layout plus timeoutMillis / edges fields)
//	GET  /v1/healthz  — 200 "ok" while serving, 503 "draining" after Close
//	GET  /v1/stats    — JSON counters snapshot (wire.Stats)
//	GET  /v1/metrics  — Prometheus text exposition: the service registry
//	                    followed by the process-wide obs.Default registry
//	POST /v1/replicate — install a route a peer already computed
//
// Queue overflow maps to 429 with Retry-After; oversized or malformed
// layouts to 4xx; deadline expiry to 504. Every error body is a
// wire.Error carrying the sentinel code, so clients recover the exact
// sentinel with errors.Is however the error was wrapped (see
// wire.WriteError and the API.md table).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+wire.PathRoute, s.handleRouteV1)
	mux.HandleFunc("POST "+wire.PathReplicate, s.handleReplicate)
	mux.HandleFunc("GET "+wire.PathHealthz, s.handleHealthz)
	mux.HandleFunc("GET "+wire.PathStats, s.handleStats)
	mux.HandleFunc("GET "+wire.PathMetrics, s.handleMetrics)
	return mux
}

// handleRouteV1 serves the typed protocol: a wire.RouteRequest envelope,
// with the per-request options as message fields.
func (s *Service) handleRouteV1(w http.ResponseWriter, r *http.Request) {
	var req wire.RouteRequest
	if err := wire.ReadEnvelope(w, r, &req, &req.Layout); err != nil {
		wire.WriteError(w, err)
		return
	}
	in, err := layout.DecodeWithLimit(bytes.NewReader(req.Layout), s.cfg.MaxVolume)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if req.TimeoutMillis < 0 {
		wire.WriteErrorStatus(w, http.StatusBadRequest, "invalid_layout", "timeoutMillis: want >= 0")
		return
	}
	ctx := r.Context()
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	resp, err := s.Submit(ctx, in)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if !req.Edges {
		resp.Edges = nil
	}
	wire.WriteJSON(w, resp)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	wire.WriteHealthz(w, s.Closed())
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	wire.WriteJSON(w, s.Stats())
}

// handleMetrics exposes the service registry followed by the process-wide
// default registry (route/core/mcts counters) in the Prometheus text
// format. Metric name sets are disjoint (serve.* vs route.*/core.*), so
// concatenating the expositions is well-formed.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	wire.SetProto(w.Header())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.m.reg.WritePrometheus(w); err != nil {
		return
	}
	obs.Default.WritePrometheus(w)
}
