package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/store"
)

// CanonicalKey returns the hex form of the instance's augmentation-
// normalized cache key (see canonicalize). The cluster coordinator shards
// requests by this key, so all 16 orientations of a layout land on the
// same worker and share its cache.
func CanonicalKey(in *layout.Instance) string {
	key, _ := canonicalize(in)
	return hex.EncodeToString(key[:])
}

// canonicalize returns the cache key of the instance together with the
// augmentation that maps the instance onto its canonical (smallest-digest)
// form. The key is the augmentation-normalized identity of the layout: the
// smallest SHA-256 digest over the serializations of its 16 augmented
// variants (paper §3.6's augmentation group: 4 rotations x H-mirror x
// Z-mirror). Two layouts share a key exactly when one is an augmentation of
// the other, so a cached route for any orientation serves all 16, and every
// orientation agrees on both the key and the canonical space.
func canonicalize(in *layout.Instance) (key store.Key, toCanon grid.Aug) {
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

// inverseAug returns the augmentation undoing a. Aug.Apply composes the
// rotation first, then the H-mirror, then the Z-mirror; conjugating a
// rotation by a mirror inverts it, so the in-plane part MirH∘Rot^r is an
// involution, a pure rotation inverts to the complementary one, and the
// Z-mirror commutes with everything.
func inverseAug(a grid.Aug) grid.Aug {
	r := ((a.Rot % 4) + 4) % 4
	if a.MirH {
		return grid.Aug{Rot: r, MirH: true, MirZ: a.MirZ}
	}
	return grid.Aug{Rot: (4 - r) % 4, MirZ: a.MirZ}
}
