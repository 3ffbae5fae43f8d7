package route

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"oarsmt/internal/grid"
)

// cancelledOARMST exercises the cancellation path: a pre-cancelled context
// must abort the construction with the context's error.
func TestOARMSTCancelled(t *testing.T) {
	g, err := grid.NewUniform(64, 64, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.SetContext(ctx)
	terms := []grid.VertexID{g.Index(0, 0, 0), g.Index(63, 63, 1), g.Index(0, 63, 0)}
	if _, err := r.OARMST(terms); !errors.Is(err, context.Canceled) {
		t.Fatalf("OARMST with cancelled context: err = %v, want context.Canceled", err)
	}
	if !errors.Is(r.Err(), context.Canceled) {
		t.Fatalf("Router.Err() = %v, want context.Canceled", r.Err())
	}
}

// TestOARMSTDeadline routes a large maze under a deadline that cannot be
// met and checks the search actually returns (promptly) with the deadline
// error instead of running to completion.
func TestOARMSTDeadline(t *testing.T) {
	g, err := grid.NewUniform(96, 96, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	terms := make([]grid.VertexID, 0, 24)
	for i := 0; i < 24; i++ {
		terms = append(terms, g.Index((i*17)%96, (i*41)%96, i%4))
	}
	r := NewRouter(g)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	r.SetContext(ctx)
	start := time.Now()
	_, err = r.OARMST(terms)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("OARMST past deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled OARMST took %v; cancellation is not prompt", elapsed)
	}
}

// TestSetContextBackgroundIsFree checks that installing the background
// context disables polling and routing still succeeds.
func TestSetContextBackground(t *testing.T) {
	g, err := grid.NewUniform(8, 8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g)
	r.SetContext(context.Background())
	tree, err := r.OARMST([]grid.VertexID{g.Index(0, 0, 0), g.Index(7, 7, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cost <= 0 {
		t.Fatalf("cost = %v, want > 0", tree.Cost)
	}
}

// TestSteinerTreeCancelled checks the SteinerTree entry point propagates
// cancellation too.
func TestSteinerTreeCancelled(t *testing.T) {
	g, err := grid.NewUniform(48, 48, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.SetContext(ctx)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(47, 0, 0), g.Index(0, 47, 0)}
	if _, err := r.SteinerTree(pins, []grid.VertexID{g.Index(24, 24, 0)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SteinerTree with cancelled context: err = %v, want context.Canceled", err)
	}
}

// cancelAfter is a context that reports cancellation from its (after+1)-th
// Err poll on, so a test can cancel at a deterministic point inside a build.
type cancelAfter struct {
	context.Context
	polls, after int
}

func (c *cancelAfter) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestOARMSTCancelledMidBuild cancels a 128x128 build halfway through its
// context polls: the build must stop at that poll with context.Canceled,
// and the same router must then rebuild the tree a fresh router builds.
func TestOARMSTCancelledMidBuild(t *testing.T) {
	g, err := grid.NewUniform(128, 128, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		g.Block(grid.VertexID(rng.Intn(g.NumVertices())))
	}
	var terms []grid.VertexID
	for len(terms) < 64 {
		if id := grid.VertexID(rng.Intn(g.NumVertices())); !g.Blocked(id) {
			terms = append(terms, id)
		}
	}
	want, err := NewRouter(g).OARMST(terms)
	if err != nil {
		t.Skipf("instance not routable: %v", err)
	}

	r := NewRouter(g)
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	full := &cancelAfter{Context: base, after: math.MaxInt}
	r.SetContext(full)
	if _, err := r.OARMST(terms); err != nil {
		t.Fatal(err)
	}
	// One poll per attach step plus one per ctxCheckInterval heap pops.
	if steps := len(terms) - 1; full.polls <= steps {
		t.Fatalf("%d context polls over %d attach steps; heap pops are not polled", full.polls, steps)
	}

	mid := &cancelAfter{Context: base, after: full.polls / 2}
	r.SetContext(mid)
	if _, err := r.OARMST(terms); !errors.Is(err, context.Canceled) {
		t.Fatalf("OARMST cancelled mid-build: err = %v, want context.Canceled", err)
	}
	if mid.polls != mid.after+1 {
		t.Fatalf("build polled %d times after cancelling at poll %d", mid.polls, mid.after+1)
	}

	r.SetContext(nil)
	got, err := r.OARMST(terms)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTree(t, "rebuild after cancel", want, nil, got, nil)
}
