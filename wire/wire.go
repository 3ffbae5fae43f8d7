// Package wire is the typed, versioned HTTP protocol of the oarsmt
// serving stack: the request/response/stats/error/cluster message shapes,
// the `/v1/` path constants, the sentinel-error code table, and the
// protocol-version negotiation header.
//
// It is the single source of truth for what crosses the network. The
// serving daemon (internal/serve), the cluster coordinator
// (internal/cluster), the public client package (client), and every
// in-repo tool (oarsmt-chaos, perfbench) all speak these types;
// nothing else in the repository builds serve JSON by hand.
//
// # Versioning
//
// Every versioned endpoint lives under the PathPrefix ("/v1"). A client
// advertises the protocol version it speaks with the ProtoHeader request
// header; servers accept any version in [MinVersion, Version] and reject
// others with ErrUnsupportedProto (HTTP 400, code "unsupported_proto").
// Responses always carry the server's own version in the same header, so
// a client can detect a newer server. See API.md for the deprecation
// policy.
package wire

import (
	"fmt"
	"net/http"
	"strconv"

	"oarsmt/internal/errs"
)

// Version is the protocol version this tree speaks; MinVersion is the
// oldest version servers still accept. They are equal until a breaking
// revision ships.
const (
	Version    = 1
	MinVersion = 1
)

// ProtoHeader carries the protocol version: the client's spoken version
// on requests, the server's own version on responses.
const ProtoHeader = "X-Oarsmt-Proto"

// Versioned endpoint paths.
const (
	PathPrefix  = "/v1"
	PathRoute   = "/v1/route"
	PathHealthz = "/v1/healthz"
	PathStats   = "/v1/stats"
	PathMetrics = "/v1/metrics"

	// PathReplicate installs an already-routed answer into a worker's
	// cache (write-through replication from the coordinator).
	PathReplicate = "/v1/replicate"

	// Cluster-plane paths, served by the coordinator.
	PathRegister = "/v1/cluster/register"
	PathLease    = "/v1/cluster/lease"
	PathDrain    = "/v1/cluster/drain"
)

// Sentinels of the wire layer itself. They complete the internal/errs
// table for conditions that only exist at the serving surface.
var (
	// ErrClosed reports a service that has begun draining; resubmit
	// elsewhere (HTTP 503, code "closed").
	ErrClosed = errs.ErrClosed
	// ErrTooLarge reports a layout above the service's volume budget
	// (HTTP 413, code "too_large").
	ErrTooLarge = errs.ErrTooLarge
	// ErrUnsupportedProto reports a protocol version outside the
	// server's accepted range (HTTP 400, code "unsupported_proto").
	ErrUnsupportedProto = errs.ErrUnsupportedProto
)

// CheckProto validates the protocol version a request advertises. A
// missing header is accepted as the current version (the header is
// optional for hand-written clients); a malformed or out-of-range one is
// an ErrUnsupportedProto.
func CheckProto(r *http.Request) error {
	h := r.Header.Get(ProtoHeader)
	if h == "" {
		return nil
	}
	v, err := strconv.Atoi(h)
	if err != nil {
		return fmt.Errorf("%w: malformed %s header %q", ErrUnsupportedProto, ProtoHeader, h)
	}
	if v < MinVersion || v > Version {
		return fmt.Errorf("%w: version %d, server accepts [%d, %d]",
			ErrUnsupportedProto, v, MinVersion, Version)
	}
	return nil
}

// SetProto stamps the server's protocol version on a response (or the
// client's spoken version on a request).
func SetProto(h http.Header) { h.Set(ProtoHeader, strconv.Itoa(Version)) }
