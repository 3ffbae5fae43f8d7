package serve

import (
	"math/rand"
	"testing"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
)

// augmentInstance returns the instance viewed through the augmentation,
// the same construction rl.AugmentSample applies to training samples.
func augmentInstance(in *layout.Instance, a grid.Aug) *layout.Instance {
	g := in.Graph
	ng := a.Apply(g)
	pins := make([]grid.VertexID, len(in.Pins))
	for i, p := range in.Pins {
		pins[i] = ng.IndexOf(a.ApplyCoord(g.H, g.V, g.M, g.CoordOf(p)))
	}
	return &layout.Instance{Name: in.Name, Graph: ng, Pins: pins}
}

func serveInstance(t *testing.T, seed int64, h, v, m, pins int) *layout.Instance {
	t.Helper()
	in, err := layout.Random(rand.New(rand.NewSource(seed)), layout.RandomSpec{
		H: h, V: v, MinM: m, MaxM: m,
		MinPins: pins, MaxPins: pins,
		MinObstacles: 4, MaxObstacles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestInverseAug checks inverseAug against every augmentation on every
// coordinate of an asymmetric grid: applying a then its inverse must be
// the identity.
func TestInverseAug(t *testing.T) {
	const h, v, m = 3, 5, 2
	for _, a := range grid.AllAugmentations() {
		inv := inverseAug(a)
		// Dimensions of the space a maps into.
		ah, av := h, v
		if a.Rot%2 == 1 {
			ah, av = v, h
		}
		for hh := 0; hh < h; hh++ {
			for vv := 0; vv < v; vv++ {
				for mm := 0; mm < m; mm++ {
					c := grid.Coord{H: hh, V: vv, M: mm}
					fwd := a.ApplyCoord(h, v, m, c)
					back := inv.ApplyCoord(ah, av, m, fwd)
					if back != c {
						t.Fatalf("aug %+v: %v -> %v -> %v, want identity", a, c, fwd, back)
					}
				}
			}
		}
	}
}

// TestCanonicalKeyInvariantUnderAugmentation is the point of the cache
// key: all 16 orientations of a layout share one key.
func TestCanonicalKeyInvariantUnderAugmentation(t *testing.T) {
	in := serveInstance(t, 11, 6, 8, 2, 5)
	key0, _ := canonicalize(in)
	for _, a := range grid.AllAugmentations() {
		key, _ := canonicalize(augmentInstance(in, a))
		if key != key0 {
			t.Fatalf("augmentation %+v changed the canonical key", a)
		}
	}
}

// TestCanonicalKeySeparatesLayouts guards against a degenerate hash:
// different layouts, and the same layout with different pins, must get
// different keys.
func TestCanonicalKeySeparatesLayouts(t *testing.T) {
	a := serveInstance(t, 1, 6, 6, 2, 4)
	b := serveInstance(t, 2, 6, 6, 2, 4)
	ka, _ := canonicalize(a)
	kb, _ := canonicalize(b)
	if ka == kb {
		t.Fatal("two random layouts share a canonical key")
	}
	c := &layout.Instance{Name: a.Name, Graph: a.Graph, Pins: a.Pins[:len(a.Pins)-1]}
	kc, _ := canonicalize(c)
	if kc == ka {
		t.Fatal("dropping a pin did not change the canonical key")
	}
}

// TestEntryRoundTripAllAugmentations checks the cache record round trip in
// every orientation: storing a routed tree and mapping it back into the
// same request orientation must reproduce the tree bit for bit.
func TestEntryRoundTripAllAugmentations(t *testing.T) {
	base := serveInstance(t, 21, 5, 7, 2, 4)
	for _, a := range grid.AllAugmentations() {
		in := augmentInstance(base, a)
		tree, err := plainTree(in)
		if err != nil {
			t.Fatal(err)
		}
		key, toCanon := canonicalize(in)
		rec := recordFromTree(in, key, toCanon, tree, nil, false, 0)
		back, _, ok := treeFromRecord(in, toCanon, rec)
		if !ok {
			t.Fatalf("orientation %+v: round trip rejected", a)
		}
		if back.Cost != tree.Cost {
			t.Fatalf("orientation %+v: cost %v -> %v, want bit-identical", a, tree.Cost, back.Cost)
		}
		if len(back.Edges) != len(tree.Edges) {
			t.Fatalf("orientation %+v: %d edges -> %d", a, len(tree.Edges), len(back.Edges))
		}
		for i := range tree.Edges {
			if back.Edges[i] != tree.Edges[i] {
				t.Fatalf("orientation %+v: edge %d changed", a, i)
			}
		}
	}
}
