// Package render draws layouts and routed trees, for debugging and for
// inspecting router behaviour: an SVG renderer with one panel per routing
// layer, and a compact ASCII renderer for terminals and tests.
//
// Rendering works in grid space (Hanan coordinates); graphs built from
// geometric layouts scale each column/row by its original spacing so the
// picture reflects true geometry.
package render

import (
	"fmt"
	"io"
	"strings"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/route"
)

// SVGConfig styles the SVG output.
type SVGConfig struct {
	// CellSize is the pixel pitch of one grid step (geometric graphs scale
	// per-interval distances relative to this).
	CellSize float64
	// ShowGrid draws light grid lines.
	ShowGrid bool
}

// DefaultSVGConfig returns the standard style.
func DefaultSVGConfig() SVGConfig { return SVGConfig{CellSize: 14, ShowGrid: true} }

// wireColors cycles across nets in multi-tree drawings.
var wireColors = []string{"#c33", "#38c", "#2a2", "#a3a", "#c80", "#088", "#844", "#666"}

// SVGMulti draws several routed trees (e.g. the nets of a multinet run)
// on one instance, one colour per tree. Nil trees are skipped.
func SVGMulti(w io.Writer, in *layout.Instance, trees []*route.Tree, cfg SVGConfig) error {
	return svgDraw(w, in, trees, cfg)
}

// SVG writes an SVG drawing of the instance and (optionally nil) routed
// tree: one panel per layer, pins as filled circles, obstacles as grey
// squares, tree edges as thick segments, vias as rings on both endpoint
// layers, and Steiner points (any tree vertex of degree >= 3 that is not a
// pin) as diamonds.
func SVG(w io.Writer, in *layout.Instance, tree *route.Tree, cfg SVGConfig) error {
	if tree == nil {
		return svgDraw(w, in, nil, cfg)
	}
	return svgDraw(w, in, []*route.Tree{tree}, cfg)
}

func svgDraw(w io.Writer, in *layout.Instance, trees []*route.Tree, cfg SVGConfig) error {
	if cfg.CellSize <= 0 {
		cfg.CellSize = 14
	}
	g := in.Graph
	xs, ys := axisOffsets(g, cfg.CellSize)
	panelW := xs[len(xs)-1] + cfg.CellSize*2
	panelH := ys[len(ys)-1] + cfg.CellSize*2
	const gap = 12.0
	totalW := float64(panelW*float64(g.M)) + float64(gap*float64(g.M-1))
	totalH := panelH + 20

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		totalW, totalH, totalW, totalH)
	fmt.Fprintf(w, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")

	pinSet := in.PinSet()

	px := func(layer int, h int) float64 {
		return float64(float64(layer)*(panelW+gap)) + cfg.CellSize + xs[h]
	}
	py := func(v int) float64 {
		// SVG y grows downward; flip so V grows upward.
		return cfg.CellSize + (ys[len(ys)-1] - ys[v]) + 16
	}

	for m := 0; m < g.M; m++ {
		fmt.Fprintf(w, `<text x="%.1f" y="12" font-family="monospace" font-size="11">layer %d</text>`+"\n",
			px(m, 0), m)
		if cfg.ShowGrid {
			for h := 0; h < g.H; h++ {
				fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#eee" stroke-width="0.5"/>`+"\n",
					px(m, h), py(0), px(m, h), py(g.V-1))
			}
			for v := 0; v < g.V; v++ {
				fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#eee" stroke-width="0.5"/>`+"\n",
					px(m, 0), py(v), px(m, g.H-1), py(v))
			}
		}
		// Obstacles.
		for h := 0; h < g.H; h++ {
			for v := 0; v < g.V; v++ {
				if g.BlockedCoord(grid.Coord{H: h, V: v, M: m}) {
					s := cfg.CellSize * 0.7
					fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#bbb"/>`+"\n",
						px(m, h)-float64(s/2), py(v)-float64(s/2), s, s)
				}
			}
		}
	}

	// Tree edges and vias, one colour per tree.
	for ti, tree := range trees {
		if tree == nil {
			continue
		}
		color := wireColors[ti%len(wireColors)]
		for _, e := range tree.Edges {
			ca, cb := g.CoordOf(e.A), g.CoordOf(e.B)
			if ca.M == cb.M {
				fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2.2" stroke-linecap="round"/>`+"\n",
					px(ca.M, ca.H), py(ca.V), px(cb.M, cb.H), py(cb.V), color)
			} else {
				for _, c := range []grid.Coord{ca, cb} {
					fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" stroke="%s" stroke-width="1.6"/>`+"\n",
						px(c.M, c.H), py(c.V), cfg.CellSize*0.32, color)
				}
			}
		}
		// Steiner points: non-pin branch vertices.
		for v, d := range tree.Degrees() {
			if d < 3 {
				continue
			}
			if _, isPin := pinSet[v]; isPin {
				continue
			}
			c := g.CoordOf(v)
			r := float64(cfg.CellSize * 0.33)
			fmt.Fprintf(w, `<path d="M %.1f %.1f l %.1f %.1f l %.1f %.1f l %.1f %.1f z" fill="#2a2" opacity="0.9"/>`+"\n",
				px(c.M, c.H), py(c.V)-r, r, r, -r, r, -r, -r)
		}
	}

	// Pins on top.
	for _, p := range in.Pins {
		c := g.CoordOf(p)
		fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="#136"/>`+"\n",
			px(c.M, c.H), py(c.V), cfg.CellSize*0.28)
	}

	_, err := fmt.Fprintln(w, "</svg>")
	return err
}

// axisOffsets returns cumulative pixel offsets per column/row, scaled by
// the graph's per-interval distances (normalised so the mean interval is
// one cell).
func axisOffsets(g *grid.Graph, cell float64) (xs, ys []float64) {
	scale := func(d []float64) []float64 {
		out := make([]float64, len(d)+1)
		if len(d) == 0 {
			return out
		}
		mean := 0.0
		for _, v := range d {
			mean += v
		}
		mean /= float64(len(d))
		if mean <= 0 {
			mean = 1
		}
		for i, v := range d {
			step := cell * v / mean
			if step < cell*0.4 {
				step = cell * 0.4
			}
			if step > cell*3 {
				step = cell * 3
			}
			out[i+1] = out[i] + step
		}
		return out
	}
	return scale(g.DX), scale(g.DY)
}

// ASCII renders the instance and tree as text, one block per layer.
// Symbols: P pin, S kept Steiner point (degree >= 3 non-pin), # obstacle,
// + tree vertex, * via endpoint, . empty.
func ASCII(in *layout.Instance, tree *route.Tree) string {
	g := in.Graph
	pinSet := in.PinSet()
	inTree := map[grid.VertexID]bool{}
	viaEnd := map[grid.VertexID]bool{}
	degrees := map[grid.VertexID]int{}
	if tree != nil {
		degrees = tree.Degrees()
		for _, e := range tree.Edges {
			inTree[e.A] = true
			inTree[e.B] = true
			ca, cb := g.CoordOf(e.A), g.CoordOf(e.B)
			if ca.M != cb.M {
				viaEnd[e.A] = true
				viaEnd[e.B] = true
			}
		}
	}

	var sb strings.Builder
	for m := 0; m < g.M; m++ {
		fmt.Fprintf(&sb, "layer %d:\n", m)
		for v := g.V - 1; v >= 0; v-- {
			for h := 0; h < g.H; h++ {
				id := g.Index(h, v, m)
				ch := byte('.')
				switch {
				case func() bool { _, ok := pinSet[id]; return ok }():
					ch = 'P'
				case g.Blocked(id):
					ch = '#'
				case degrees[id] >= 3:
					ch = 'S'
				case viaEnd[id]:
					ch = '*'
				case inTree[id]:
					ch = '+'
				}
				sb.WriteByte(ch)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
