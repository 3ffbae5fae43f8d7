package serve

import (
	"bytes"
	"fmt"
	"net/http"

	"oarsmt/internal/errs"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/route"
	"oarsmt/internal/store"
	"oarsmt/wire"
)

// This file is the receiving half of the cluster's replica fan-out: the
// coordinator POSTs a finished route to the next ring replica
// (/v1/replicate), and the worker installs it into its cache after
// rebuilding and re-validating the tree against the layout, on the same
// replay a cache hit takes. The validate step is the whole safety story —
// a corrupt, stale, or malicious payload is rejected with ErrInvalidTree,
// so a replicated entry can make a shard warm but can never make it
// wrong.

// Install maps the routed tree carried by a replicated response into
// canonical space, validates it through the replay every cache hit takes
// (treeFromRecord), and installs it into the cache. The payload's cost is
// never read: the stored record is rebuilt from the validated tree. It
// returns false when the record was declined because a valid one is
// already cached (not an error: replication is idempotent).
func (s *Service) Install(in *layout.Instance, resp *wire.RouteResponse) (bool, error) {
	if in == nil || in.Graph == nil || resp == nil || len(in.Pins) == 0 {
		return false, fmt.Errorf("%w: serve: replicate: nil instance or response, or no pins", errs.ErrInvalidLayout)
	}
	if in.Graph.NumVertices() > s.cfg.MaxVolume {
		return false, fmt.Errorf("%w: %d vertices, budget %d",
			ErrTooLarge, in.Graph.NumVertices(), s.cfg.MaxVolume)
	}
	if s.Closed() {
		return false, ErrClosed
	}
	if resp.Degraded {
		// A degraded answer must never enter the cache; replicating one
		// would poison the successor's shard.
		return false, fmt.Errorf("%w: serve: replicate: degraded response", errs.ErrInvalidTree)
	}
	key, toCanon := canonicalize(in)
	tree, steiner, ok := treeFromRecord(in, toCanon, recordFromResponse(in, key, toCanon, resp))
	if !ok {
		return false, fmt.Errorf("%w: serve: replicate: tree does not validate against the layout", errs.ErrInvalidTree)
	}
	if s.store == nil {
		return true, nil
	}
	if rec, ok := s.store.Get(key); ok {
		if _, _, valid := treeFromRecord(in, toCanon, rec); valid {
			return false, nil
		}
	}
	s.store.Put(recordFromTree(in, key, toCanon, tree, steiner, resp.UsedSteiner, resp.Proposed))
	return true, nil
}

// recordFromResponse maps a response's edges and Steiner points, in the
// instance's own orientation, into a canonical-space record rooted at the
// first pin. Coordinates are mapped unchecked: treeFromRecord maps them
// back and rejects any that fall outside the graph.
func recordFromResponse(in *layout.Instance, key store.Key, toCanon grid.Aug, resp *wire.RouteResponse) *store.Record {
	g := in.Graph
	fw := func(c wire.Coord3) grid.Coord {
		return toCanon.ApplyCoord(g.H, g.V, g.M, grid.Coord{H: c.H, V: c.V, M: c.M})
	}
	r := recordFromTree(in, key, toCanon, route.NewTreeAt(in.Pins[0]), nil, resp.UsedSteiner, resp.Proposed)
	for _, ed := range resp.Edges {
		r.Edges = append(r.Edges, [2]grid.Coord{fw(ed[0]), fw(ed[1])})
	}
	for _, sp := range resp.SteinerPoints {
		r.Steiner = append(r.Steiner, fw(sp))
	}
	return r
}

// handleReplicate serves POST /v1/replicate.
func (s *Service) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req wire.ReplicateRequest
	if err := wire.ReadEnvelope(w, r, &req, &req.Layout); err != nil {
		wire.WriteError(w, err)
		return
	}
	in, err := layout.DecodeWithLimit(bytes.NewReader(req.Layout), s.cfg.MaxVolume)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	installed, err := s.Install(in, &req.Response)
	if err != nil {
		s.m.replicateRejected.Inc()
		wire.WriteError(w, err)
		return
	}
	s.m.replicated.Inc()
	wire.WriteJSON(w, wire.ReplicateResponse{Installed: installed})
}
