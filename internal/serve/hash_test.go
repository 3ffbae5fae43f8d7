package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/store"
)

// materializedCanonicalize is the oracle for canonicalize: it builds each
// of the 16 augmented graphs with Aug.Apply, maps and sorts the pins into
// it, and hashes every observable property of the result. canonicalize
// must agree with it on the key and on toCanon.
func materializedCanonicalize(in *layout.Instance) (key store.Key, toCanon grid.Aug) {
	first := true
	for _, a := range grid.AllAugmentations() {
		g := a.Apply(in.Graph)
		pins := mapVertices(a, in.Graph, g, in.Pins)
		d := digest(g, pins)
		if first || bytes.Compare(d[:], key[:]) < 0 {
			key, toCanon, first = d, a, false
		}
	}
	return key, toCanon
}

// mapVertices maps vertex IDs of src through the augmentation into dst's
// index space, sorted ascending so the result is canonical.
func mapVertices(a grid.Aug, src, dst *grid.Graph, vs []grid.VertexID) []grid.VertexID {
	out := make([]grid.VertexID, len(vs))
	for i, v := range vs {
		out[i] = dst.IndexOf(a.ApplyCoord(src.H, src.V, src.M, src.CoordOf(v)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// digest hashes every observable property of a grid-form layout:
// dimensions, via cost, per-step edge costs, preferred-direction scales,
// the vertex and edge obstacle sets, and the (sorted) pin set.
func digest(g *grid.Graph, pins []grid.VertexID) store.Key {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	putInt := func(v int64) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		if len(buf) >= 4096 {
			flush()
		}
	}
	putFloat := func(v float64) { putInt(int64(math.Float64bits(v))) }
	putBool := func(v bool) {
		b := byte(0)
		if v {
			b = 1
		}
		buf = append(buf, b)
		if len(buf) >= 4096 {
			flush()
		}
	}

	h.Write([]byte("oarsmt-layout-v1"))
	putInt(int64(g.H))
	putInt(int64(g.V))
	putInt(int64(g.M))
	putFloat(g.ViaCost)
	for _, c := range g.DX {
		putFloat(c)
	}
	for _, c := range g.DY {
		putFloat(c)
	}
	putBool(g.HScale != nil)
	for _, s := range g.HScale {
		putFloat(s)
	}
	putBool(g.VScale != nil)
	for _, s := range g.VScale {
		putFloat(s)
	}
	for id := 0; id < g.NumVertices(); id++ {
		putBool(g.Blocked(grid.VertexID(id)))
	}
	// Edge obstacles, in the fixed (h, v, m) iteration order. Hashing the
	// per-edge values (rather than the backing arrays) makes a nil array
	// and an all-false array identical, which is the right equivalence.
	for hh := 0; hh < g.H-1; hh++ {
		for vv := 0; vv < g.V; vv++ {
			for mm := 0; mm < g.M; mm++ {
				putBool(g.EdgeXBlocked(hh, vv, mm))
			}
		}
	}
	for hh := 0; hh < g.H; hh++ {
		for vv := 0; vv < g.V-1; vv++ {
			for mm := 0; mm < g.M; mm++ {
				putBool(g.EdgeYBlocked(hh, vv, mm))
			}
		}
	}
	putInt(int64(len(pins)))
	for _, p := range pins {
		putInt(int64(p))
	}
	flush()

	var key store.Key
	h.Sum(key[:0])
	return key
}

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

// keyLayouts returns three fixed layouts for TestCanonicalKeyPinned,
// built without a generator so that only the key's byte stream can move
// their keys.
func keyLayouts(t *testing.T) []*layout.Instance {
	t.Helper()
	// 5x3x3: uneven costs, an HScale only, vertex and edge obstacles.
	a := grid.MustNew(5, 3, 3, []float64{1, 2, 3, 4}, []float64{1.5, 2.5}, 3)
	if err := a.SetLayerScales([]float64{1, 2, 1}, nil); err != nil {
		t.Fatal(err)
	}
	a.Block(a.Index(1, 1, 0))
	a.Block(a.Index(3, 2, 2))
	a.BlockEdgeX(0, 1, 2)
	a.BlockEdgeY(3, 0, 1)
	// 1x4x1: a single column on one layer.
	b := grid.MustNew(1, 4, 1, nil, []float64{1, 1, 2}, 1)
	b.Block(b.Index(0, 3, 0))
	// 16x16x4, perfbench's stream shape: both scales, a fixed pattern.
	dx, dy := make([]float64, 15), make([]float64, 15)
	for i := range dx {
		dx[i], dy[i] = float64(1+i%3), 1+float64(i*5%4)/4
	}
	c := grid.MustNew(16, 16, 4, dx, dy, 2.5)
	if err := c.SetLayerScales([]float64{1, 3, 1, 3}, []float64{3, 1, 3, 1}); err != nil {
		t.Fatal(err)
	}
	for id := range c.NumVertices() {
		if id%11 == 3 {
			c.Block(grid.VertexID(id))
		}
	}
	c.BlockEdgeX(7, 2, 1)
	c.BlockEdgeY(4, 9, 3)
	var cPins []grid.VertexID
	for id := 0; id < c.NumVertices(); id += 97 {
		cPins = append(cPins, grid.VertexID(id))
	}
	return []*layout.Instance{
		{Name: "a", Graph: a, Pins: []grid.VertexID{a.Index(4, 0, 1), a.Index(0, 2, 0), a.Index(2, 1, 2)}},
		{Name: "b", Graph: b, Pins: []grid.VertexID{b.Index(0, 0, 0), b.Index(0, 2, 0)}},
		{Name: "c", Graph: c, Pins: cPins},
	}
}

// TestCanonicalKeyPinned pins the hex key of three fixed layouts. Stores
// on disk and every worker of a cluster depend on these bytes, so any
// change to the serialization must fail here, even one made to the oracle
// too.
func TestCanonicalKeyPinned(t *testing.T) {
	want := []string{
		"1cff5f9b4c194da20a66d3a55888544b2e1da6b6b3c9ae1738cd10028f1ec0a6",
		"71c0a4c48e2b88d618121dfdd1bb6948af7a9f54a9e85495e9f48f6a3a89de37",
		"17f01ca1c8e54172ce090434836a905091492395cf22c89756ee8af58498d031",
	}
	for i, in := range keyLayouts(t) {
		if got := CanonicalKey(in); got != want[i] {
			t.Errorf("layout %s: key %s, want %s", in.Name, got, want[i])
		}
	}
}

// fuzzInstance builds a layout with H, V ∈ [1, 12] and M ∈ [1, 5]:
// non-uniform DX, DY and via cost, layer scales on neither, one or both
// axes (by scales % 4), blocked vertices, explicitly blocked X and Y
// edges, and pins % 13 pins, duplicates allowed; seed draws the rest.
func fuzzInstance(h, v, m, scales, pins uint8, seed int64) *layout.Instance {
	r := rand.New(rand.NewSource(seed))
	H, V, M := 1+int(h%12), 1+int(v%12), 1+int(m%5)
	cost := func() float64 { return 0.25 * float64(1+r.Intn(16)) }
	dx, dy := make([]float64, H-1), make([]float64, V-1)
	for i := range dx {
		dx[i] = cost()
	}
	for i := range dy {
		dy[i] = cost()
	}
	g := grid.MustNew(H, V, M, dx, dy, cost())
	scale := func(on bool) []float64 {
		if !on {
			return nil
		}
		s := make([]float64, M)
		for i := range s {
			s[i] = cost()
		}
		return s
	}
	if err := g.SetLayerScales(scale(scales&1 != 0), scale(scales&2 != 0)); err != nil {
		panic(err)
	}
	density := r.Intn(4) // 0 to 3 in 10
	for id := range g.NumVertices() {
		if r.Intn(10) < density {
			g.Block(grid.VertexID(id))
		}
	}
	for hh := 0; hh < H; hh++ {
		for vv := 0; vv < V; vv++ {
			for mm := 0; mm < M; mm++ {
				if hh < H-1 && r.Intn(8) == 0 {
					g.BlockEdgeX(hh, vv, mm)
				}
				if vv < V-1 && r.Intn(8) == 0 {
					g.BlockEdgeY(hh, vv, mm)
				}
			}
		}
	}
	p := make([]grid.VertexID, pins%13)
	for i := range p {
		p[i] = grid.VertexID(r.Intn(g.NumVertices()))
	}
	return &layout.Instance{Name: "fuzz", Graph: g, Pins: p}
}

// FuzzCanonicalKey holds the streamed canonicalize to the materializing
// oracle: the same key and the same toCanon, on every shape including
// M = 1, H = 1 and V = 1, and the same key under all 16 views of the
// layout.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(uint8(5), uint8(7), uint8(2), uint8(0), uint8(4), int64(1))
	f.Add(uint8(15), uint8(15), uint8(3), uint8(3), uint8(10), int64(2))
	f.Add(uint8(0), uint8(6), uint8(0), uint8(1), uint8(2), int64(3))
	f.Add(uint8(3), uint8(0), uint8(4), uint8(2), uint8(0), int64(4))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(3), uint8(12), int64(5))
	f.Fuzz(func(t *testing.T, h, v, m, scales, pins uint8, seed int64) {
		in := fuzzInstance(h, v, m, scales, pins, seed)
		key, toCanon := canonicalize(in)
		wantKey, wantAug := materializedCanonicalize(in)
		if key != wantKey || toCanon != wantAug {
			t.Fatalf("%dx%dx%d: streamed key %x via %+v, oracle %x via %+v",
				in.Graph.H, in.Graph.V, in.Graph.M, key, toCanon, wantKey, wantAug)
		}
		for _, a := range grid.AllAugmentations() {
			if k, _ := canonicalize(augmentInstance(in, a)); k != key {
				t.Fatalf("%dx%dx%d: view %+v has key %x, want %x", in.Graph.H, in.Graph.V, in.Graph.M, a, k, key)
			}
		}
	})
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
