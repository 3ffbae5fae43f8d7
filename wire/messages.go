package wire

import "encoding/json"

// Coord3 is a grid coordinate in the JSON wire shape.
type Coord3 struct {
	H int `json:"h"`
	V int `json:"v"`
	M int `json:"m"`
}

// RouteRequest is the typed body of POST /v1/route. The per-request
// options are fields, so they version with the protocol.
type RouteRequest struct {
	// Layout is the layout to route, in the layout JSON format (grid or
	// geometric form).
	Layout json.RawMessage `json:"layout"`
	// TimeoutMillis caps the server-side routing deadline for this
	// request; 0 leaves the server default in force.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// Edges asks for the full routed tree in the response.
	Edges bool `json:"edges,omitempty"`
}

// RouteResponse is the answer to one routing request. It is the exact
// shape internal/serve produces (the service aliases this type), plus the
// coordinator-set Worker/Hedged fields.
type RouteResponse struct {
	Name          string   `json:"name,omitempty"`
	Cost          float64  `json:"cost"`
	HorWirelength float64  `json:"horWirelength"`
	VerWirelength float64  `json:"verWirelength"`
	ViaWirelength float64  `json:"viaWirelength"`
	NumEdges      int      `json:"numEdges"`
	SteinerPoints []Coord3 `json:"steinerPoints"`
	UsedSteiner   bool     `json:"usedSteiner"`
	Proposed      int      `json:"proposed"`
	// Degraded reports that selector inference failed (after retries) and
	// the tree is the plain-OARMST fallback: a valid route without the
	// learned Steiner points. Degraded results are never cached, so the
	// service returns to normal answers as soon as inference recovers.
	Degraded bool `json:"degraded"`
	CacheHit bool `json:"cacheHit"`
	// StoreHit reports that a cache hit came from a persistent cache (a
	// worker started with -store-dir); CacheHit is also set.
	StoreHit bool `json:"storeHit,omitempty"`
	// BatchSize is how many requests the route that answered this one
	// answered: 1 for a fresh route, 0 for a cache hit.
	BatchSize     int     `json:"batchSize"`
	ElapsedMillis float64 `json:"elapsedMillis"`
	// Edges is the full routed tree; populated only when requested.
	Edges [][2]Coord3 `json:"edges,omitempty"`

	// Worker is the shard that served the request; set by the cluster
	// coordinator, empty when talking to a worker directly.
	Worker string `json:"worker,omitempty"`
	// Hedged reports that the answer came from a hedged retry to a
	// second replica after the primary shard was slow.
	Hedged bool `json:"hedged,omitempty"`
}

// ReplicateRequest installs a finished route into a worker's cache
// (POST /v1/replicate). The coordinator sends it to the next distinct
// ring replica after a fresh non-degraded answer, so a shard's warm set
// survives the death of its owner. The receiving worker re-validates the
// tree against the layout before installing; a response that does not
// validate is rejected, never served.
type ReplicateRequest struct {
	// Layout is the routed layout, in the layout JSON format (the same
	// bytes RouteRequest.Layout carried).
	Layout json.RawMessage `json:"layout"`
	// Response is the answer to install. It must carry Edges (the full
	// routed tree) and must not be Degraded.
	Response RouteResponse `json:"response"`
}

// ReplicateResponse acknowledges an install.
type ReplicateResponse struct {
	// Installed is false when the worker declined the entry (already
	// cached); a validation failure is an error, not a decline.
	Installed bool `json:"installed"`
}

// Stats is one worker's point-in-time counter snapshot (GET /v1/stats).
type Stats struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	QueueDepth    int     `json:"queueDepth"`
	QueueCapacity int     `json:"queueCapacity"`
	// CacheEntries / CacheEvictions describe the worker's one cache tier.
	// The Store* fields describe the same tier's persistence and are
	// filled only when it is on disk (-store-dir); StoreEntries then
	// equals CacheEntries.
	CacheEntries   int   `json:"cacheEntries"`
	CacheEvictions int64 `json:"cacheEvictions"`

	StoreEntries       int   `json:"storeEntries,omitempty"`
	StoreSegments      int   `json:"storeSegments,omitempty"`
	StoreHits          int64 `json:"storeHits,omitempty"`
	StoreMisses        int64 `json:"storeMisses,omitempty"`
	StoreServed        int64 `json:"storeServed,omitempty"`
	StoreWrites        int64 `json:"storeWrites,omitempty"`
	StoreCompactions   int64 `json:"storeCompactions,omitempty"`
	StoreInvalidations int64 `json:"storeInvalidations,omitempty"`
	StoreEvictions     int64 `json:"storeEvictions,omitempty"`

	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Rejected    int64 `json:"rejected"`
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	Inferences  int64 `json:"inferences"`
	Degraded    int64 `json:"degraded"`
	Retries     int64 `json:"retries"`

	// Replicated / ReplicateRejected count /v1/replicate installs the
	// worker accepted and declined-or-refused.
	Replicated        int64 `json:"replicated,omitempty"`
	ReplicateRejected int64 `json:"replicateRejected,omitempty"`

	// Batches counts the routes the worker ran and BatchedJobs the
	// requests those routes answered, one each.
	Batches      int64   `json:"batches"`
	BatchedJobs  int64   `json:"batchedJobs"`
	MeanBatch    float64 `json:"meanBatch"`
	MaxBatch     int64   `json:"maxBatch"`
	CacheHitRate float64 `json:"cacheHitRate"`

	P50Millis float64 `json:"p50Millis"`
	P99Millis float64 `json:"p99Millis"`
}

// RegisterRequest announces a worker to the coordinator (POST
// /v1/cluster/register). Re-registering an already-known ID renews its
// lease and updates its address.
type RegisterRequest struct {
	// ID is the worker's stable identity on the hash ring; it must not
	// change across re-registrations or the shard's cache affinity is
	// lost.
	ID string `json:"id"`
	// Addr is the worker's base URL ("http://host:port") as reachable
	// from the coordinator.
	Addr string `json:"addr"`
	// Proto is the protocol version the worker speaks.
	Proto int `json:"proto"`
}

// RegisterResponse carries the lease the coordinator granted.
type RegisterResponse struct {
	// TTLMillis is the lease duration; the worker must renew within it
	// (conventionally every TTL/3) or be dropped from the ring.
	TTLMillis int64 `json:"ttlMillis"`
}

// LeaseRequest renews a worker's lease (POST /v1/cluster/lease).
type LeaseRequest struct {
	ID string `json:"id"`
}

// LeaseResponse acknowledges a renewal.
type LeaseResponse struct {
	TTLMillis int64 `json:"ttlMillis"`
}

// DrainRequest announces that a worker is shutting down gracefully (POST
// /v1/cluster/drain): the coordinator stops routing new requests to it
// immediately while in-flight ones finish on the worker's own drain
// path.
type DrainRequest struct {
	ID string `json:"id"`
}

// WorkerInfo is one worker's row in the coordinator's stats.
type WorkerInfo struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	Draining bool   `json:"draining,omitempty"`
	// LeaseMillis is the time remaining on the worker's lease.
	LeaseMillis int64 `json:"leaseMillis"`
	Forwards    int64 `json:"forwards"`
	Errors      int64 `json:"errors,omitempty"`
	// Breaker is the worker's circuit-breaker state: "closed",
	// "open", or "half-open" (empty when breakers are disabled).
	Breaker string `json:"breaker,omitempty"`
	// InFlight / Hedges are the worker's live request counts: forwards
	// currently outstanding and hedged attempts currently outstanding.
	InFlight int64 `json:"inFlight"`
	Hedges   int64 `json:"hedges,omitempty"`
}

// ClusterStats is the coordinator's point-in-time snapshot (GET /v1/stats
// on the coordinator).
type ClusterStats struct {
	UptimeSeconds float64      `json:"uptimeSeconds"`
	Workers       []WorkerInfo `json:"workers"`

	Forwards  int64 `json:"forwards"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedgeWins"`
	Retries   int64 `json:"retries"`
	Expired   int64 `json:"expired"`
	Drained   int64 `json:"drained"`

	// InFlight is the number of forwards currently admitted; Shed counts
	// requests rejected at the admission bound (HTTP 429).
	InFlight int64 `json:"inFlight"`
	Shed     int64 `json:"shed,omitempty"`
	// BreakerOpens counts breaker trips (closed→open transitions).
	BreakerOpens int64 `json:"breakerOpens,omitempty"`
	// Replicated / ReplicationErrors / ReplicationDropped describe the
	// replica fan-out: installs delivered, installs that failed, and
	// installs dropped because the bounded queue was full.
	Replicated         int64 `json:"replicated,omitempty"`
	ReplicationErrors  int64 `json:"replicationErrors,omitempty"`
	ReplicationDropped int64 `json:"replicationDropped,omitempty"`
	// Restored is the number of workers rebuilt from the persisted
	// coordinator state at the last restart.
	Restored int64 `json:"restored,omitempty"`

	P50Millis float64 `json:"p50Millis"`
	P99Millis float64 `json:"p99Millis"`
}
