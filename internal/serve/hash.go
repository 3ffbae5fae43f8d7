package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

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
//
// No augmented graph is built. Each variant's serialization is written
// straight from the source layout into one reused buffer and hashed whole.
// Its obstacle flags are the bulk of it; they are built once for the
// eight variants without the H-mirror (flagBases) and read by whole rows,
// which an H-mirror only reverses in order. Nothing is kept per shape: the
// client chooses the shape, so a per-shape table would grow without bound.
func canonicalize(in *layout.Instance) (key store.Key, toCanon grid.Aug) {
	g := in.Graph
	bases := flagBases(g)
	// Room for any variant: the flags, 8 bytes per dimension, cost,
	// scale and pin, and the tag and the two scale flags.
	buf := make([]byte, 0, 64+8*(g.H+g.V+2*g.M+len(in.Pins))+len(bases[0]))
	pins := make([]grid.VertexID, len(in.Pins))
	for i, a := range grid.AllAugmentations() {
		buf = appendOriented(buf[:0], g, bases, a, in.Pins, pins)
		if d := sha256.Sum256(buf); i == 0 || bytes.Compare(d[:], key[:]) < 0 {
			key, toCanon = d, a
		}
	}
	return key, toCanon
}

// appendOriented appends the serialization of the layout (g, srcPins)
// seen through a: dimensions, via cost, per-step edge costs,
// preferred-direction scales, the vertex, X-edge and Y-edge obstacle
// flags, and the sorted pin set, each in the variant's own (h, v, m)
// order. The flags are the h rows of each section of a's base in bases,
// in reverse order when a has the H-mirror. pins is scratch of
// len(srcPins).
func appendOriented(buf []byte, g *grid.Graph, bases *[8][]byte, a grid.Aug, srcPins, pins []grid.VertexID) []byte {
	w := newView(g, a)
	buf = append(buf, "oarsmt-layout-v1"...)
	buf = appendInt(buf, int64(w.h))
	buf = appendInt(buf, int64(w.v))
	buf = appendInt(buf, int64(w.m))
	buf = appendFloat(buf, g.ViaCost)
	for h := 0; h < w.h-1; h++ {
		buf = appendFloat(buf, edgeCost(g, w.pre(h, 0, 0), w.dx))
	}
	for v := 0; v < w.v-1; v++ {
		buf = appendFloat(buf, edgeCost(g, w.pre(0, v, 0), w.dy))
	}
	hs, vs := g.HScale, g.VScale
	if w.dx.H == 0 { // a quarter turn swaps the in-layer directions
		hs, vs = vs, hs
	}
	for _, s := range [][]float64{hs, vs} {
		buf = appendBool(buf, s != nil)
		for m := 0; m < w.m && s != nil; m++ {
			buf = appendFloat(buf, s[w.pre(0, 0, m).M])
		}
	}

	base := bases[2*(a.Rot%4)+int(boolByte(a.MirZ))]
	for _, sec := range w.sections() {
		rows, n := sec[0], sec[1]*w.m
		for h := range rows {
			r := h
			if a.MirH {
				r = rows - 1 - h
			}
			buf = append(buf, base[r*n:(r+1)*n]...)
		}
		base = base[rows*n:]
	}

	for i, p := range srcPins {
		c := a.ApplyCoord(g.H, g.V, g.M, g.CoordOf(p))
		pins[i] = grid.VertexID((c.H*w.v+c.V)*w.m + c.M)
	}
	slices.Sort(pins)
	buf = appendInt(buf, int64(len(pins)))
	for _, p := range pins {
		buf = appendInt(buf, int64(p))
	}
	return buf
}

// flagBases returns the obstacle flags of g seen through Aug{Rot: r,
// MirZ: z} at index 2r+z. The identity's are sourceFlags(g). The other
// variants with r < 2 are gathered from them through their affine maps.
// A half turn composed with the Z-mirror reverses every flag section
// whole, so the variants with r ≥ 2 are the sections of Aug{Rot: r−2,
// MirZ: !z} reversed.
func flagBases(g *grid.Graph) *[8][]byte {
	fl := sourceFlags(g)
	n := len(fl)
	more := make([]byte, 7*n)
	bases := &[8][]byte{fl}
	for i := 1; i < 8; i++ {
		bases[i] = more[(i-1)*n : i*n]
		a := grid.Aug{Rot: i / 2, MirZ: i%2 == 1}
		if a.Rot < 2 {
			gatherFlags(bases[i], g, fl, a)
			continue
		}
		dst := bases[i]
		copy(dst, bases[(i-4)^1])
		for _, sec := range newView(g, a).sections() {
			k := sec[0] * sec[1] * g.M
			slices.Reverse(dst[:k])
			dst = dst[k:]
		}
	}
	return bases
}

// view is the layout g seen through an augmentation: its dimensions, and
// the steps in g that one step along its h and along its v axis take (a
// unit step along g's H or V axis).
type view struct {
	h, v, m int
	inv     grid.Aug
	dx, dy  grid.Coord
}

func newView(g *grid.Graph, a grid.Aug) view {
	w := view{h: g.H, v: g.V, m: g.M, inv: inverseAug(a)}
	if a.Rot%2 == 1 {
		w.h, w.v = g.V, g.H
	}
	o, x, y := w.pre(0, 0, 0), w.pre(1, 0, 0), w.pre(0, 1, 0)
	w.dx = grid.Coord{H: x.H - o.H, V: x.V - o.V}
	w.dy = grid.Coord{H: y.H - o.H, V: y.V - o.V}
	return w
}

// sections returns the h and v extents of the vertex, X-edge and Y-edge
// flag sections of the view, in serialization order.
func (w view) sections() [3][2]int {
	return [3][2]int{{w.h, w.v}, {w.h - 1, w.v}, {w.h, w.v - 1}}
}

// pre returns the coordinate in g that the view's (h, v, m) shows.
func (w view) pre(h, v, m int) grid.Coord {
	return w.inv.ApplyCoord(w.h, w.v, w.m, grid.Coord{H: h, V: v, M: m})
}

// gatherFlags writes the vertex, X-edge and Y-edge flags of g seen
// through a into dst, reading fl (sourceFlags(g)). The map from a's
// coordinates to g's is affine, so each flag is fl[o + h·sh + v·sv + m·sm].
func gatherFlags(dst []byte, g *grid.Graph, fl []byte, a grid.Aug) {
	w := newView(g, a)
	nv, nx := g.H*g.V*g.M, (g.H-1)*g.V*g.M
	vertex := func(c grid.Coord) int { return (c.H*g.V+c.V)*g.M + c.M }
	// edge returns the flag index of the edge leaving c by the unit step d.
	edge := func(c, d grid.Coord) int {
		if d.H != 0 {
			return nv + ((c.H+min(d.H, 0))*g.V+c.V)*g.M + c.M
		}
		return nv + nx + (c.H*(g.V-1)+c.V+min(d.V, 0))*g.M + c.M
	}
	idx := [3]func(grid.Coord) int{
		vertex,
		func(c grid.Coord) int { return edge(c, w.dx) },
		func(c grid.Coord) int { return edge(c, w.dy) },
	}
	for s, sec := range w.sections() {
		f := idx[s]
		o := f(w.pre(0, 0, 0))
		sh, sv, sm := f(w.pre(1, 0, 0))-o, f(w.pre(0, 1, 0))-o, f(w.pre(0, 0, 1))-o
		for h := 0; h < sec[0]; h++ {
			for v := 0; v < sec[1]; v++ {
				i, col := o+h*sh+v*sv, dst[:w.m]
				for m := range col {
					col[m] = fl[i]
					i += sm
				}
				dst = dst[w.m:]
			}
		}
	}
}

// sourceFlags returns g's obstacle flags, one byte each: every vertex in
// VertexID order, then every X edge and every Y edge in (h, v, m) order,
// an edge being blocked when it or either endpoint is (EdgeXBlocked,
// EdgeYBlocked). These are the flag sections of the identity variant.
// They are per-edge values rather than the graph's backing arrays, so a
// nil edge array and an all-false one hash alike.
func sourceFlags(g *grid.Graph) []byte {
	nv := g.NumVertices()
	fl := make([]byte, nv, nv+(g.H-1)*g.V*g.M+g.H*(g.V-1)*g.M)
	for id := range fl {
		fl[id] = boolByte(g.Blocked(grid.VertexID(id)))
	}
	for h := 0; h < g.H-1; h++ {
		for v := 0; v < g.V; v++ {
			for m := 0; m < g.M; m++ {
				fl = append(fl, boolByte(g.EdgeXBlocked(h, v, m)))
			}
		}
	}
	for h := 0; h < g.H; h++ {
		for v := 0; v < g.V-1; v++ {
			for m := 0; m < g.M; m++ {
				fl = append(fl, boolByte(g.EdgeYBlocked(h, v, m)))
			}
		}
	}
	return fl
}

// edgeCost returns the unscaled cost of g's edge leaving c by the unit
// step d.
func edgeCost(g *grid.Graph, c, d grid.Coord) float64 {
	if d.H != 0 {
		return g.DX[c.H+min(d.H, 0)]
	}
	return g.DY[c.V+min(d.V, 0)]
}

func appendInt(buf []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(buf, uint64(v)) }

func appendFloat(buf []byte, v float64) []byte { return appendInt(buf, int64(math.Float64bits(v))) }

func appendBool(buf []byte, v bool) []byte { return append(buf, boolByte(v)) }

// boolByte is 1 for true and 0 for false.
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
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
