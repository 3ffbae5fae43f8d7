package serve

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"oarsmt/client"
	"oarsmt/internal/errs"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/wire"
)

// replicateFixture routes one layout on a source worker (edges included)
// and stands up a second, cold worker to install it on, returning the
// cold worker's service, its client, and the routed response.
func replicateFixture(t *testing.T) (*Service, *client.Client, *wire.RouteResponse) {
	t.Helper()
	_, src := newTestServer(t, Config{})
	resp, err := src.RouteJSON(context.Background(), []byte(smallLayoutJSON), &client.RouteOptions{Edges: true})
	if err != nil {
		t.Fatal(err)
	}
	dst, dstCl := newTestServer(t, Config{})
	return dst, dstCl, resp
}

// TestReplicateInstallsWarm: a replicated route is installed into the
// receiving worker's cache and served warm — same cost, no inference —
// and a repeat install is declined as idempotent, not an error.
func TestReplicateInstallsWarm(t *testing.T) {
	_, dstCl, resp := replicateFixture(t)
	ctx := context.Background()

	inst, err := dstCl.Replicate(ctx, wire.ReplicateRequest{
		Layout: []byte(smallLayoutJSON), Response: *resp,
	})
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	if !inst.Installed {
		t.Fatal("first replicate declined")
	}

	got, err := dstCl.RouteJSON(ctx, []byte(smallLayoutJSON), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit {
		t.Error("replicated layout served cold")
	}
	if got.Cost != resp.Cost {
		t.Errorf("replicated cost %v, want %v", got.Cost, resp.Cost)
	}

	again, err := dstCl.Replicate(ctx, wire.ReplicateRequest{
		Layout: []byte(smallLayoutJSON), Response: *resp,
	})
	if err != nil {
		t.Fatalf("repeat replicate: %v", err)
	}
	if again.Installed {
		t.Error("repeat replicate installed over an equivalent cached entry")
	}

	st, err := dstCl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replicated != 2 || st.ReplicateRejected != 0 {
		t.Errorf("stats replicated=%d rejected=%d, want 2/0", st.Replicated, st.ReplicateRejected)
	}
}

// TestReplicateNeverInstallsWrong is the safety half of replication: a
// payload whose tree does not validate against the layout — truncated,
// non-adjacent, out of bounds, or degraded — is rejected with
// ErrInvalidTree and never enters a cache tier.
func TestReplicateNeverInstallsWrong(t *testing.T) {
	_, dstCl, resp := replicateFixture(t)
	ctx := context.Background()

	truncated := *resp
	truncated.Edges = truncated.Edges[:len(truncated.Edges)-1]
	if _, err := dstCl.Replicate(ctx, wire.ReplicateRequest{
		Layout: []byte(smallLayoutJSON), Response: truncated,
	}); !errors.Is(err, errs.ErrInvalidTree) {
		t.Errorf("truncated tree = %v, want ErrInvalidTree", err)
	}

	skewed := *resp
	skewed.Edges = append([][2]wire.Coord3{}, resp.Edges...)
	skewed.Edges[0] = [2]wire.Coord3{{H: 0, V: 0, M: 0}, {H: 2, V: 2, M: 0}} // non-adjacent
	if _, err := dstCl.Replicate(ctx, wire.ReplicateRequest{
		Layout: []byte(smallLayoutJSON), Response: skewed,
	}); !errors.Is(err, errs.ErrInvalidTree) {
		t.Errorf("non-adjacent edge = %v, want ErrInvalidTree", err)
	}

	outside := *resp
	outside.Edges = append([][2]wire.Coord3{}, resp.Edges...)
	outside.Edges[0] = [2]wire.Coord3{{H: 3, V: 0, M: 0}, {H: 4, V: 0, M: 0}} // off the 3x3x2 grid
	if _, err := dstCl.Replicate(ctx, wire.ReplicateRequest{
		Layout: []byte(smallLayoutJSON), Response: outside,
	}); !errors.Is(err, errs.ErrInvalidTree) {
		t.Errorf("out-of-bounds edge = %v, want ErrInvalidTree", err)
	}

	degraded := *resp
	degraded.Degraded = true
	if _, err := dstCl.Replicate(ctx, wire.ReplicateRequest{
		Layout: []byte(smallLayoutJSON), Response: degraded,
	}); !errors.Is(err, errs.ErrInvalidTree) {
		t.Errorf("degraded response = %v, want ErrInvalidTree", err)
	}

	// None of the rejected payloads warmed the cache.
	got, err := dstCl.RouteJSON(ctx, []byte(smallLayoutJSON), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHit {
		t.Error("a rejected replicate still warmed the cache")
	}
	st, err := dstCl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplicateRejected != 4 {
		t.Errorf("replicateRejected = %d, want 4", st.ReplicateRejected)
	}
}

// TestInstallStoresSourceRecord: in every orientation, installing a
// fresh answer (the only kind the coordinator replicates) stores the
// record its source stored — same key, edges, Steiner points and cost
// bits — and serves the rebuilt tree's cost, never the payload's.
func TestInstallStoresSourceRecord(t *testing.T) {
	sel := tinySelector(t)
	in := serveInstance(t, 26, 6, 8, 2, 5) // some orientations keep Steiner points
	src := newTestService(t, Config{Selector: sel})
	dst := newTestService(t, Config{Selector: sel})
	ctx := context.Background()
	key, _ := canonicalize(in)
	withSteiner := 0
	for _, a := range grid.AllAugmentations() {
		view := augmentInstance(in, a)
		src.store.Drop(key)
		dst.store.Drop(key)
		resp, err := src.Submit(ctx, view)
		if err != nil || resp.CacheHit {
			t.Fatalf("orientation %+v: fresh route = (%+v, %v)", a, resp, err)
		}
		want, _ := src.store.Get(key)
		if len(want.Steiner) > 0 {
			withSteiner++
		}
		doctored := *resp
		doctored.Cost = resp.Cost / 3
		if installed, err := dst.Install(view, &doctored); err != nil || !installed {
			t.Fatalf("orientation %+v: Install = (%v, %v), want (true, nil)", a, installed, err)
		}
		got, ok := dst.store.Get(key)
		if !ok || got.Key != want.Key || !reflect.DeepEqual(got.Edges, want.Edges) ||
			!reflect.DeepEqual(got.Steiner, want.Steiner) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			t.Errorf("orientation %+v: installed record %+v, source stored %+v", a, got, want)
		}
		served, err := dst.Submit(ctx, view)
		if err != nil {
			t.Fatal(err)
		}
		if !served.CacheHit || served.Cost != resp.Cost {
			t.Errorf("orientation %+v: served cacheHit=%v cost %v, want the rebuilt cost %v (payload said %v)",
				a, served.CacheHit, served.Cost, resp.Cost, doctored.Cost)
		}
	}
	if withSteiner == 0 {
		t.Error("no orientation kept a Steiner point; the test compared edges only")
	}
}

// TestReplicateEnvelopeValidation: malformed envelopes are rejected at
// the HTTP layer with the invalid_layout contract.
func TestReplicateEnvelopeValidation(t *testing.T) {
	_, dstCl, resp := replicateFixture(t)
	ctx := context.Background()

	if _, err := dstCl.Replicate(ctx, wire.ReplicateRequest{Response: *resp}); !errors.Is(err, errs.ErrInvalidLayout) {
		t.Errorf("replicate without layout = %v, want ErrInvalidLayout", err)
	}
	if _, err := dstCl.Replicate(ctx, wire.ReplicateRequest{
		Layout: []byte(`{"grid":{}}`), Response: *resp,
	}); !errors.Is(err, errs.ErrInvalidLayout) {
		t.Errorf("replicate with malformed layout = %v, want ErrInvalidLayout", err)
	}
}

// TestInstallDirect: the embeddable Install API enforces the same
// contract without HTTP — closed services refuse, and a valid install
// round-trips through Submit's cache lookup.
func TestInstallDirect(t *testing.T) {
	_, src := newTestServer(t, Config{})
	resp, err := src.RouteJSON(context.Background(), []byte(smallLayoutJSON), &client.RouteOptions{Edges: true})
	if err != nil {
		t.Fatal(err)
	}
	in, err := layout.Decode(strings.NewReader(smallLayoutJSON))
	if err != nil {
		t.Fatal(err)
	}

	dst := newTestService(t, Config{})
	installed, err := dst.Install(in, resp)
	if err != nil || !installed {
		t.Fatalf("Install = (%v, %v), want (true, nil)", installed, err)
	}
	got, err := dst.Submit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit || got.Cost != resp.Cost {
		t.Errorf("Submit after Install = cacheHit=%v cost=%v, want warm cost %v", got.CacheHit, got.Cost, resp.Cost)
	}

	if _, err := dst.Install(nil, resp); !errors.Is(err, errs.ErrInvalidLayout) {
		t.Errorf("Install(nil) = %v, want ErrInvalidLayout", err)
	}
	dst.Close()
	if _, err := dst.Install(in, resp); !errors.Is(err, ErrClosed) {
		t.Errorf("Install on closed service = %v, want ErrClosed", err)
	}
}

// TestInstallDeclinesRepeatOnStore: on a service whose only cache is the
// persistent store, a repeat Install of an already-cached layout is
// declined, as it is on a memory-only service.
func TestInstallDeclinesRepeatOnStore(t *testing.T) {
	_, src := newTestServer(t, Config{})
	resp, err := src.RouteJSON(context.Background(), []byte(smallLayoutJSON), &client.RouteOptions{Edges: true})
	if err != nil {
		t.Fatal(err)
	}
	in, err := layout.Decode(strings.NewReader(smallLayoutJSON))
	if err != nil {
		t.Fatal(err)
	}
	dst := newTestService(t, Config{StoreDir: t.TempDir()})
	if installed, err := dst.Install(in, resp); err != nil || !installed {
		t.Fatalf("first Install = (%v, %v), want (true, nil)", installed, err)
	}
	if installed, err := dst.Install(in, resp); err != nil || installed {
		t.Errorf("repeat Install = (%v, %v), want (false, nil)", installed, err)
	}
}
