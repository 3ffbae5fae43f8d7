package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/models"
	"oarsmt/internal/route"
)

// alwaysGuard is Construct's tree phase with the guard building the plain
// tree on every route, as it did before Construct learned to reuse the
// Steiner tree when that keeps no point. It is the oracle the shortcut is
// held to: it returns the final tree, the kept points, PlainCost and
// UsedSteiner.
func alwaysGuard(r *Router, in *layout.Instance, sps []grid.VertexID) (*Result, error) {
	router := route.NewRouter(in.Graph)
	st, err := router.SteinerTree(in.Pins, sps)
	if err != nil {
		return nil, err
	}
	tree, kept := st.Tree, st.Kept
	if r.RetracePasses > 0 {
		tree, _ = router.Retrace(tree, in.Pins, r.RetracePasses)
		deg := tree.Degrees()
		var filtered []grid.VertexID
		for _, sp := range kept {
			if deg[sp] >= 3 {
				filtered = append(filtered, sp)
			}
		}
		kept = filtered
	}
	res := &Result{Tree: tree, SteinerPoints: kept, UsedSteiner: true}
	plain, err := r.plainTree(router, in.Pins)
	if err != nil {
		return nil, err
	}
	res.PlainCost = plain.Cost
	if plain.Cost < tree.Cost {
		res.Tree, res.SteinerPoints, res.UsedSteiner = plain, nil, false
	}
	return res, nil
}

// sameResult reports how got differs from the oracle's want: edges in
// insertion order, cost and PlainCost bits, UsedSteiner and the kept
// points ("" when identical).
func sameResult(got, want *Result) string {
	if fmt.Sprint(got.Tree.Edges) != fmt.Sprint(want.Tree.Edges) {
		return fmt.Sprintf("edges %v, oracle %v", got.Tree.Edges, want.Tree.Edges)
	}
	if math.Float64bits(got.Tree.Cost) != math.Float64bits(want.Tree.Cost) {
		return fmt.Sprintf("cost %v, oracle %v", got.Tree.Cost, want.Tree.Cost)
	}
	if math.Float64bits(got.PlainCost) != math.Float64bits(want.PlainCost) {
		return fmt.Sprintf("PlainCost %v, oracle %v", got.PlainCost, want.PlainCost)
	}
	if got.UsedSteiner != want.UsedSteiner || len(got.SteinerPoints) != len(want.SteinerPoints) ||
		fmt.Sprint(got.SteinerPoints) != fmt.Sprint(want.SteinerPoints) {
		return fmt.Sprintf("steiner %v used=%v, oracle %v used=%v",
			got.SteinerPoints, got.UsedSteiner, want.SteinerPoints, want.UsedSteiner)
	}
	return ""
}

// TestGuardShortcutMatchesAlwaysGuard holds Construct, which skips the
// guard's plain build when the Steiner tree keeps no point, to the
// always-guard oracle. Each layout is routed twice: from the embedded
// model's proposal (almost never kept at these shapes) and from a random
// proposal of free vertices (often kept), so both branches are covered.
// Both retrace settings are checked. The shapes span M = 1–5, non-square H×V and 3–12 pins; the golden
// seeds 1317 and 2239 keep a learned point.
func TestGuardShortcutMatchesAlwaysGuard(t *testing.T) {
	sel, err := models.New()
	if err != nil {
		t.Fatal(err)
	}
	routers := []*Router{NewRouter(sel), {Selector: sel, GuardedAcceptance: true}}
	type shape struct{ h, v, m, pins, obstacles int }
	var layouts []*layout.Instance
	for _, seed := range []int64{1317, 2239} {
		layouts = append(layouts, goldenInstance(t, goldenCase{Seed: seed, H: 16, VDim: 16, M: 4, Pins: 10, Obstacles: 12}))
	}
	n := 400
	if testing.Short() {
		n = 60
	}
	rng := rand.New(rand.NewSource(7))
	shapes := []shape{{16, 16, 4, 10, 12}, {12, 9, 2, 5, 8}, {16, 11, 3, 7, 10}, {20, 14, 5, 12, 14}, {10, 13, 1, 3, 6}}
	for i := 0; i < n; i++ {
		s := shapes[i%len(shapes)]
		in, err := layout.Random(rng, layout.RandomSpec{
			H: s.h, V: s.v, MinM: s.m, MaxM: s.m,
			MinPins: 3, MaxPins: s.pins,
			MinObstacles: s.obstacles / 2, MaxObstacles: s.obstacles,
		})
		if err != nil {
			t.Fatal(err)
		}
		layouts = append(layouts, in)
	}

	ctx := context.Background()
	var kept [2]int // routes keeping a point: model, random proposals
	for i, in := range layouts {
		random := make([]grid.VertexID, in.MaxSteinerPoints())
		for j := range random {
			random[j] = grid.VertexID(rng.Intn(in.Graph.NumVertices()))
		}
		model, _ := routers[0].Propose(in)
		for k, sps := range [][]grid.VertexID{model, random} {
			for _, r := range routers {
				got, err := r.Construct(ctx, in, sps, 1, 0)
				if err != nil {
					t.Fatalf("layout %d: %v", i, err)
				}
				want, err := alwaysGuard(r, in, sps)
				if err != nil {
					t.Fatalf("layout %d: oracle: %v", i, err)
				}
				if diff := sameResult(got, want); diff != "" {
					t.Fatalf("layout %d (%dx%dx%d, %d pins), %d retrace passes, proposal %v: %s",
						i, in.Graph.H, in.Graph.V, in.Graph.M, len(in.Pins), r.RetracePasses, sps, diff)
				}
				if r.RetracePasses > 0 && len(got.SteinerPoints) > 0 {
					kept[k]++
				}
			}
		}
	}
	if kept[0] < 2 || kept[1] == 0 {
		t.Errorf("kept a point on %d model and %d random proposals: the guard's build branch went untested",
			kept[0], kept[1])
	}
	t.Logf("%d layouts; kept a point on %d model and %d random proposals", len(layouts), kept[0], kept[1])
}
