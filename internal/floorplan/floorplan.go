// Package floorplan models the chip geometry of the TECfan target system: a
// 16-core CMP patterned on the Intel Single-chip Cloud Computer (SCC)
// floorplan, where each 2.6 mm × 3.6 mm core tile carries 18 components laid
// out after the Alpha 21264 (paper §IV-A, Fig. 3). The thermal network,
// power model, and TEC placement are all derived from these rectangles.
//
// Geometry is in millimetres with the origin at the top-left of the chip,
// x growing right and y growing down (matching the paper's figure).
package floorplan

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"tecfan/internal/floats"
)

// Kind classifies a component for the power model: logic blocks have high
// dynamic power density, arrays (caches, register files) are leakier per
// area, wires/uncore sit in between.
type Kind int

const (
	KindLogic Kind = iota // execution units, map/queue logic
	KindArray             // caches, register files, TLBs
	KindWire              // router / interconnect
	KindVR                // on-tile voltage regulator
)

// String returns a stable lowercase name for the kind.
func (k Kind) String() string {
	switch k {
	case KindLogic:
		return "logic"
	case KindArray:
		return "array"
	case KindWire:
		return "wire"
	case KindVR:
		return "vr"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Component is one rectangular floorplan block.
type Component struct {
	Name string  // unique within its tile, e.g. "IntExec"
	Core int     // owning core index, 0-based
	Kind Kind    //
	X, Y float64 // top-left corner, mm (chip coordinates)
	W, H float64 // width and height, mm
}

// Area returns the component area in mm².
func (c Component) Area() float64 { return c.W * c.H }

// CenterX returns the x coordinate of the component centroid.
func (c Component) CenterX() float64 { return c.X + c.W/2 }

// CenterY returns the y coordinate of the component centroid.
func (c Component) CenterY() float64 { return c.Y + c.H/2 }

// ID returns the globally unique "core/name" identifier.
func (c Component) ID() string { return fmt.Sprintf("c%d/%s", c.Core, c.Name) }

// Tile dimensions from the paper: half the dual-core SCC tile.
const (
	TileW = 2.6 // mm
	TileH = 3.6 // mm
)

// tileSpec describes the canonical tile layout in tile-local coordinates.
// The left 1.8 mm column holds six rows of core logic, the right 0.8 mm
// column the on-tile voltage regulator (2.2 mm², §IV-A), and the bottom
// 0.85 mm strip the private L2 and the mesh router. The rectangles tile the
// 2.6×3.6 area exactly (checked by tests).
var tileSpec = []Component{
	// Row 0 (y 0.00–0.45): rename/map and integer queue logic.
	{Name: "FPMap", Kind: KindLogic, X: 0.00, Y: 0.00, W: 0.45, H: 0.45},
	{Name: "IntMap", Kind: KindLogic, X: 0.45, Y: 0.00, W: 0.45, H: 0.45},
	{Name: "IntQ", Kind: KindLogic, X: 0.90, Y: 0.00, W: 0.45, H: 0.45},
	{Name: "IntReg", Kind: KindArray, X: 1.35, Y: 0.00, W: 0.45, H: 0.45},
	// Row 1 (y 0.45–0.90): the FP multiplier spans the row — the classic
	// Alpha hot spot and the TEC showcase.
	{Name: "FPMul", Kind: KindLogic, X: 0.00, Y: 0.45, W: 1.80, H: 0.45},
	// Row 2 (y 0.90–1.35).
	{Name: "FPReg", Kind: KindArray, X: 0.00, Y: 0.90, W: 0.45, H: 0.45},
	{Name: "FPQ", Kind: KindLogic, X: 0.45, Y: 0.90, W: 0.45, H: 0.45},
	{Name: "LdStQ", Kind: KindLogic, X: 0.90, Y: 0.90, W: 0.45, H: 0.45},
	{Name: "IntExec", Kind: KindLogic, X: 1.35, Y: 0.90, W: 0.45, H: 0.45},
	// Row 3 (y 1.35–1.80).
	{Name: "FPAdd", Kind: KindLogic, X: 0.00, Y: 1.35, W: 0.90, H: 0.45},
	{Name: "ITB", Kind: KindArray, X: 0.90, Y: 1.35, W: 0.90, H: 0.45},
	// Row 4 (y 1.80–2.25).
	{Name: "Bpred", Kind: KindArray, X: 0.00, Y: 1.80, W: 0.90, H: 0.45},
	{Name: "DTB", Kind: KindArray, X: 0.90, Y: 1.80, W: 0.90, H: 0.45},
	// Row 5 (y 2.25–2.75): L1 caches.
	{Name: "ICache", Kind: KindArray, X: 0.00, Y: 2.25, W: 0.90, H: 0.50},
	{Name: "DCache", Kind: KindArray, X: 0.90, Y: 2.25, W: 0.90, H: 0.50},
	// Right column (x 1.80–2.60): quasi-parallel on-chip VR, 0.8×2.75 =
	// 2.2 mm² as budgeted in §IV-A.
	{Name: "VR", Kind: KindVR, X: 1.80, Y: 0.00, W: 0.80, H: 2.75},
	// Bottom strip (y 2.75–3.60): private 256 KB L2 and mesh router.
	{Name: "L2", Kind: KindArray, X: 0.00, Y: 2.75, W: 1.90, H: 0.85},
	{Name: "Router", Kind: KindWire, X: 1.90, Y: 2.75, W: 0.70, H: 0.85},
}

// TileComponents returns a fresh copy of the canonical tile layout in
// tile-local coordinates with Core set to -1.
func TileComponents() []Component {
	out := make([]Component, len(tileSpec))
	copy(out, tileSpec)
	for i := range out {
		out[i].Core = -1
	}
	return out
}

// Chip is a full CMP floorplan: a TileRows×TileCols array of core tiles.
type Chip struct {
	TileRows, TileCols int
	W, H               float64     // chip dimensions, mm
	Components         []Component // all components, core-major order
	index              map[string]int
	// coreComps[core] lists the core's component indices in ascending
	// order. Both constructors build it eagerly: a Chip is shared by
	// concurrent runs, so it must not fill itself in lazily.
	coreComps [][]int
}

// NewChip builds a tileRows×tileCols chip of canonical tiles. Cores are
// numbered row-major. NewChip panics on non-positive dimensions.
func NewChip(tileRows, tileCols int) *Chip {
	if tileRows <= 0 || tileCols <= 0 {
		panic(fmt.Sprintf("floorplan: invalid tile grid %dx%d", tileRows, tileCols))
	}
	c := &Chip{
		TileRows: tileRows,
		TileCols: tileCols,
		W:        float64(tileCols) * TileW,
		H:        float64(tileRows) * TileH,
		index:    make(map[string]int),
	}
	for r := 0; r < tileRows; r++ {
		for col := 0; col < tileCols; col++ {
			core := r*tileCols + col
			ox := float64(col) * TileW
			oy := float64(r) * TileH
			for _, spec := range tileSpec {
				comp := spec
				comp.Core = core
				comp.X += ox
				comp.Y += oy
				c.index[comp.ID()] = len(c.Components)
				c.Components = append(c.Components, comp)
			}
		}
	}
	c.indexCores()
	return c
}

// NewSCC16 returns the paper's 16-core target: a 4×4 tile array,
// 10.4 mm × 14.4 mm.
func NewSCC16() *Chip { return NewChip(4, 4) }

// NewQuad returns the 4-core chip used for the §V-E OFTEC/Oracle comparison.
func NewQuad() *Chip { return NewChip(2, 2) }

// NumCores returns the number of core tiles.
func (c *Chip) NumCores() int { return c.TileRows * c.TileCols }

// Area returns the die area in mm².
func (c *Chip) Area() float64 { return c.W * c.H }

// Lookup returns the global component index for core/name, or -1.
func (c *Chip) Lookup(core int, name string) int {
	i, ok := c.index[fmt.Sprintf("c%d/%s", core, name)]
	if !ok {
		return -1
	}
	return i
}

// indexCores builds coreComps from Components: one backing array, sliced
// per core with capacity clipped to length.
func (c *Chip) indexCores() {
	flat := make([]int, 0, len(c.Components))
	c.coreComps = make([][]int, c.NumCores())
	for core := range c.coreComps {
		lo := len(flat)
		for i, comp := range c.Components {
			if comp.Core == core {
				flat = append(flat, i)
			}
		}
		c.coreComps[core] = flat[lo:len(flat):len(flat)]
	}
}

// CoreComponents returns the global indices of all components of one core,
// in ascending order. The slice is shared by every caller and must not be
// modified; its capacity equals its length, so an append copies.
func (c *Chip) CoreComponents(core int) []int {
	if core < 0 || core >= len(c.coreComps) {
		return nil
	}
	return c.coreComps[core]
}

// CoreOf returns the owning core of global component index i.
func (c *Chip) CoreOf(i int) int { return c.Components[i].Core }

// adjTol is the geometric tolerance (mm) for deciding that two rectangles
// share an edge.
const adjTol = 1e-9

// sharedEdge returns the length of the boundary segment two rectangles share,
// or 0 if they are not edge-adjacent.
func sharedEdge(a, b Component) float64 {
	// Vertical shared edge: a's right touching b's left or vice versa.
	if math.Abs((a.X+a.W)-b.X) < adjTol || math.Abs((b.X+b.W)-a.X) < adjTol {
		lo := math.Max(a.Y, b.Y)
		hi := math.Min(a.Y+a.H, b.Y+b.H)
		if hi-lo > adjTol {
			return hi - lo
		}
	}
	// Horizontal shared edge.
	if math.Abs((a.Y+a.H)-b.Y) < adjTol || math.Abs((b.Y+b.H)-a.Y) < adjTol {
		lo := math.Max(a.X, b.X)
		hi := math.Min(a.X+a.W, b.X+b.W)
		if hi-lo > adjTol {
			return hi - lo
		}
	}
	return 0
}

// Edge is one lateral adjacency between two components.
type Edge struct {
	A, B   int     // global component indices, A < B
	Length float64 // shared boundary length, mm
}

// Adjacency returns every pair of edge-adjacent components with the length of
// their shared boundary, ordered by A and then B, each Length being
// sharedEdge(Components[A], Components[B]). Tiles touch their neighbours,
// so the edge set spans cores too — this is the lateral heat-spreading
// graph.
//
// Two rectangles that share an edge overlap, or touch within adjTol, on
// both axes. So a sweep over the components sorted by left edge only
// compares a component with those that start before its right edge
// (plus slack) and overlap it in y, instead of all n² pairs. A component
// whose extent is not a finite, ordered interval cannot be placed in the
// sweep and is compared with every other one.
func (c *Chip) Adjacency() []Edge {
	comps := c.Components
	n := len(comps)
	const slack = 2 * adjTol // covers the rounding of the touch tests
	regular := func(a Component) bool {
		r, b := a.X+a.W, a.Y+a.H
		return floats.Finite(a.X) && floats.Finite(r) && floats.Finite(a.Y) && floats.Finite(b) && r >= a.X && b >= a.Y
	}
	// A tiling's adjacency graph is planar: fewer than 3n edges.
	edges := make([]Edge, 0, 3*n)
	add := func(i, j int) {
		if i > j {
			i, j = j, i
		}
		if l := sharedEdge(comps[i], comps[j]); l > 0 {
			edges = append(edges, Edge{A: i, B: j, Length: l})
		}
	}
	byX := make([]int, 0, n)
	for i, a := range comps {
		if regular(a) {
			byX = append(byX, i)
			continue
		}
		for j := range comps {
			// Pairs of two irregular components are compared once.
			if j != i && (regular(comps[j]) || j > i) {
				add(i, j)
			}
		}
	}
	slices.SortFunc(byX, func(i, j int) int { return cmp.Compare(comps[i].X, comps[j].X) })
	for p, i := range byX {
		a := comps[i]
		right, bottom := a.X+a.W, a.Y+a.H
		for _, j := range byX[p+1:] {
			b := comps[j]
			if b.X-right >= slack {
				break
			}
			if b.Y-bottom < slack && a.Y-(b.Y+b.H) < slack {
				add(i, j)
			}
		}
	}
	// Order by A with a counting sort, then each A's few edges by B.
	start := make([]int, n+1)
	for _, e := range edges {
		start[e.A+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	out := make([]Edge, len(edges))
	for _, e := range edges {
		out[start[e.A]] = e
		start[e.A]++
	}
	lo := 0
	for _, hi := range start[:n] {
		seg := out[lo:hi]
		for k := 1; k < len(seg); k++ {
			for m := k; m > 0 && seg[m].B < seg[m-1].B; m-- {
				seg[m], seg[m-1] = seg[m-1], seg[m]
			}
		}
		lo = hi
	}
	return out
}

// Overlaps reports whether any two components overlap with positive area —
// a well-formed floorplan never does.
func (c *Chip) Overlaps() bool {
	n := len(c.Components)
	for i := 0; i < n; i++ {
		a := c.Components[i]
		for j := i + 1; j < n; j++ {
			b := c.Components[j]
			ox := math.Min(a.X+a.W, b.X+b.W) - math.Max(a.X, b.X)
			oy := math.Min(a.Y+a.H, b.Y+b.H) - math.Max(a.Y, b.Y)
			if ox > adjTol && oy > adjTol {
				return true
			}
		}
	}
	return false
}

// TotalComponentArea sums all component areas (mm²); for a gap-free
// floorplan it equals Area().
func (c *Chip) TotalComponentArea() float64 {
	var a float64
	for _, comp := range c.Components {
		a += comp.Area()
	}
	return a
}
