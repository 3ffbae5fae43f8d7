package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"oarsmt/internal/errs"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/route"
	"oarsmt/wire"
)

// This file is the receiving half of the cluster's replica fan-out: the
// coordinator POSTs a finished route to the next ring replica
// (/v1/replicate), and the worker installs it into its cache after
// rebuilding and re-validating the tree against the layout. The validate
// step is the whole safety story — a corrupt, stale, or malicious payload
// is rejected with ErrInvalidTree, so a replicated entry can make a shard
// warm but can never make it wrong.

// Install rebuilds the routed tree carried by a replicated response,
// validates it against the layout's graph and pins, and installs it into
// the cache. It returns false when the record was declined because a
// valid one is already cached (not an error: replication is idempotent).
func (s *Service) Install(in *layout.Instance, resp *wire.RouteResponse) (bool, error) {
	if in == nil || in.Graph == nil || resp == nil {
		return false, fmt.Errorf("%w: serve: replicate: nil instance or response", errs.ErrInvalidLayout)
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
	tree, steiner, err := treeFromResponse(in, resp)
	if err != nil {
		return false, err
	}

	if s.store == nil {
		return true, nil
	}
	key, toCanon := canonicalize(in)
	if rec, ok := s.store.Get(key); ok {
		if _, _, valid := treeFromRecord(in, toCanon, rec); valid {
			return false, nil
		}
	}
	s.store.Put(recordFromTree(in, key, toCanon, tree, steiner, resp.UsedSteiner, resp.Proposed))
	return true, nil
}

// treeFromResponse rebuilds a routed tree from its wire shape, checking
// bounds and adjacency edge by edge, then validates it. Any defect maps
// to ErrInvalidTree.
func treeFromResponse(in *layout.Instance, resp *wire.RouteResponse) (*route.Tree, []grid.VertexID, error) {
	g := in.Graph
	if len(in.Pins) == 0 {
		return nil, nil, fmt.Errorf("%w: serve: replicate: layout has no pins", errs.ErrInvalidLayout)
	}
	if len(resp.Edges) == 0 && len(in.Pins) > 1 {
		return nil, nil, fmt.Errorf("%w: serve: replicate: response carries no edges", errs.ErrInvalidTree)
	}
	vertex := func(c wire.Coord3) (grid.VertexID, error) {
		gc := grid.Coord{H: c.H, V: c.V, M: c.M}
		if !g.InBounds(gc) {
			return 0, fmt.Errorf("%w: serve: replicate: coordinate %v out of bounds", errs.ErrInvalidTree, gc)
		}
		return g.IndexOf(gc), nil
	}
	t := route.NewTreeAt(in.Pins[0])
	for _, ed := range resp.Edges {
		a, errA := vertex(ed[0])
		if errA != nil {
			return nil, nil, errA
		}
		b, errB := vertex(ed[1])
		if errB != nil {
			return nil, nil, errB
		}
		if !adjacent(g, a, b) {
			return nil, nil, fmt.Errorf("%w: serve: replicate: edge %v-%v joins non-adjacent vertices",
				errs.ErrInvalidTree, g.CoordOf(a), g.CoordOf(b))
		}
		t.AddPath(g, []grid.VertexID{a, b})
	}
	steiner := make([]grid.VertexID, 0, len(resp.SteinerPoints))
	for _, sp := range resp.SteinerPoints {
		v, err := vertex(sp)
		if err != nil {
			return nil, nil, err
		}
		steiner = append(steiner, v)
	}
	if err := t.Validate(g, in.Pins); err != nil {
		return nil, nil, err
	}
	return t, steiner, nil
}

// handleReplicate serves POST /v1/replicate.
func (s *Service) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if err := wire.CheckProto(r); err != nil {
		wire.WriteError(w, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	var req wire.ReplicateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		wire.WriteError(w, fmt.Errorf("%w: replicate envelope: %v", errs.ErrInvalidLayout, err))
		return
	}
	if len(req.Layout) == 0 {
		wire.WriteError(w, fmt.Errorf("%w: replicate envelope has no layout", errs.ErrInvalidLayout))
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
	writeJSON(w, http.StatusOK, wire.ReplicateResponse{Installed: installed})
}
