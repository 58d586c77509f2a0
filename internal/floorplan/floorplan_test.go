package floorplan

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// componentsPerTile is the paper's M = 18 evaluated components per core.
const componentsPerTile = 18

func TestTileHas18Components(t *testing.T) {
	tile := TileComponents()
	if len(tile) != componentsPerTile {
		t.Fatalf("tile has %d components, want %d", len(tile), componentsPerTile)
	}
	seen := map[string]bool{}
	for _, c := range tile {
		if seen[c.Name] {
			t.Fatalf("duplicate component name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Core != -1 {
			t.Fatalf("tile-local component %q has core %d", c.Name, c.Core)
		}
	}
}

func TestTileAreaConservation(t *testing.T) {
	var sum float64
	for _, c := range TileComponents() {
		sum += c.Area()
	}
	want := TileW * TileH
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("component areas sum to %.6f mm², tile is %.6f mm²", sum, want)
	}
}

func TestTileWithinBounds(t *testing.T) {
	for _, c := range TileComponents() {
		if c.X < -1e-12 || c.Y < -1e-12 || c.X+c.W > TileW+1e-12 || c.Y+c.H > TileH+1e-12 {
			t.Fatalf("component %q escapes the tile: x=%v y=%v w=%v h=%v", c.Name, c.X, c.Y, c.W, c.H)
		}
		if c.W <= 0 || c.H <= 0 {
			t.Fatalf("component %q has non-positive size", c.Name)
		}
	}
}

func TestVRAreaMatchesPaper(t *testing.T) {
	for _, c := range TileComponents() {
		if c.Name == "VR" {
			if math.Abs(c.Area()-2.2) > 1e-9 {
				t.Fatalf("VR area = %.3f mm², paper budgets 2.2 mm²", c.Area())
			}
			return
		}
	}
	t.Fatal("no VR component")
}

func TestSCC16Dimensions(t *testing.T) {
	chip := NewSCC16()
	if chip.NumCores() != 16 {
		t.Fatalf("NumCores = %d", chip.NumCores())
	}
	if math.Abs(chip.W-10.4) > 1e-9 || math.Abs(chip.H-14.4) > 1e-9 {
		t.Fatalf("chip is %.2f×%.2f mm, paper says 10.4×14.4", chip.W, chip.H)
	}
	if len(chip.Components) != 16*componentsPerTile {
		t.Fatalf("chip has %d components", len(chip.Components))
	}
	if math.Abs(chip.TotalComponentArea()-chip.Area()) > 1e-6 {
		t.Fatalf("area leak: components %.4f vs die %.4f", chip.TotalComponentArea(), chip.Area())
	}
}

func TestQuadChip(t *testing.T) {
	chip := NewQuad()
	if chip.NumCores() != 4 {
		t.Fatalf("NumCores = %d", chip.NumCores())
	}
	if chip.Overlaps() {
		t.Fatal("quad chip has overlapping components")
	}
}

func TestNewChipPanicsOnBadGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChip(0, 4)
}

func TestNoOverlaps(t *testing.T) {
	if NewSCC16().Overlaps() {
		t.Fatal("SCC16 floorplan has overlapping components")
	}
}

func TestLookup(t *testing.T) {
	chip := NewSCC16()
	for core := 0; core < 16; core++ {
		i := chip.Lookup(core, "FPMul")
		if i < 0 {
			t.Fatalf("FPMul missing on core %d", core)
		}
		if chip.Components[i].Core != core || chip.CoreOf(i) != core {
			t.Fatalf("Lookup returned wrong core")
		}
	}
	if chip.Lookup(0, "NoSuch") != -1 {
		t.Fatal("Lookup of missing component should be -1")
	}
	if chip.Lookup(99, "FPMul") != -1 {
		t.Fatal("Lookup of missing core should be -1")
	}
}

func TestCoreComponents(t *testing.T) {
	chip := NewSCC16()
	for core := 0; core < 16; core++ {
		idx := chip.CoreComponents(core)
		if len(idx) != componentsPerTile {
			t.Fatalf("core %d has %d components", core, len(idx))
		}
		for _, i := range idx {
			if chip.Components[i].Core != core {
				t.Fatalf("component %d not owned by core %d", i, core)
			}
		}
	}
	checkCoreComponents(t, chip)
	checkCoreComponents(t, NewQuad())
	if got := chip.CoreComponents(16); len(got) != 0 {
		t.Errorf("core 16 of 16 lists %v", got)
	}
}

// checkCoreComponents compares every core's precomputed list with a rescan
// of the components, and checks that a caller's append cannot write into
// the shared lists.
func checkCoreComponents(t *testing.T, chip *Chip) {
	t.Helper()
	for core := 0; core < chip.NumCores(); core++ {
		var want []int
		for i, comp := range chip.Components {
			if comp.Core == core {
				want = append(want, i)
			}
		}
		got := chip.CoreComponents(core)
		if !slices.Equal(got, want) {
			t.Fatalf("core %d: CoreComponents %v, rescan %v", core, got, want)
		}
		if grown := append(got, -1); &grown[0] == &got[0] {
			t.Fatalf("core %d: an append wrote into the shared list", core)
		}
	}
}

func TestAdjacencySymmetricAndOrdered(t *testing.T) {
	chip := NewQuad()
	edges := chip.Adjacency()
	if len(edges) == 0 {
		t.Fatal("no adjacency edges")
	}
	seen := map[[2]int]bool{}
	for _, e := range edges {
		if e.A >= e.B {
			t.Fatalf("edge not ordered: %v", e)
		}
		if e.Length <= 0 {
			t.Fatalf("edge with non-positive length: %v", e)
		}
		k := [2]int{e.A, e.B}
		if seen[k] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[k] = true
	}
}

func TestAdjacencyKnownNeighbours(t *testing.T) {
	chip := NewChip(1, 1)
	find := func(name string) int {
		i := chip.Lookup(0, name)
		if i < 0 {
			t.Fatalf("missing %s", name)
		}
		return i
	}
	adjacent := func(a, b int) bool {
		for _, e := range chip.Adjacency() {
			if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
				return true
			}
		}
		return false
	}
	// FPMul spans row 1, so it touches everything in rows 0 and 2 of the
	// left column.
	fpmul := find("FPMul")
	for _, n := range []string{"FPMap", "IntMap", "IntQ", "IntReg", "FPReg", "FPQ", "LdStQ", "IntExec", "VR"} {
		if !adjacent(fpmul, find(n)) {
			t.Fatalf("FPMul should touch %s", n)
		}
	}
	// Non-neighbours.
	if adjacent(fpmul, find("Router")) {
		t.Fatal("FPMul must not touch Router")
	}
	if adjacent(find("FPMap"), find("IntQ")) {
		t.Fatal("FPMap and IntQ only share a corner, not an edge")
	}
}

func TestInterTileAdjacency(t *testing.T) {
	chip := NewChip(1, 2) // two tiles side by side
	// Core 0's VR column (right edge) must touch core 1's left-column blocks.
	vr0 := chip.Lookup(0, "VR")
	fpmap1 := chip.Lookup(1, "FPMap")
	found := false
	for _, e := range chip.Adjacency() {
		if (e.A == vr0 && e.B == fpmap1) || (e.A == fpmap1 && e.B == vr0) {
			found = true
		}
	}
	if !found {
		t.Fatal("tiles are thermally disconnected: c0/VR should touch c1/FPMap")
	}
}

func TestSharedEdgeLengths(t *testing.T) {
	a := Component{X: 0, Y: 0, W: 1, H: 1}
	b := Component{X: 1, Y: 0.5, W: 1, H: 1}
	if got := sharedEdge(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("sharedEdge = %v, want 0.5", got)
	}
	c := Component{X: 5, Y: 5, W: 1, H: 1}
	if got := sharedEdge(a, c); got != 0 {
		t.Fatalf("distant rectangles share %v", got)
	}
	// Corner touch only.
	d := Component{X: 1, Y: 1, W: 1, H: 1}
	if got := sharedEdge(a, d); got != 0 {
		t.Fatalf("corner touch shares %v", got)
	}
}

func TestComponentHelpers(t *testing.T) {
	c := Component{Name: "X", Core: 3, X: 1, Y: 2, W: 2, H: 4}
	if c.Area() != 8 {
		t.Fatalf("Area = %v", c.Area())
	}
	if c.CenterX() != 2 || c.CenterY() != 4 {
		t.Fatalf("center = (%v,%v)", c.CenterX(), c.CenterY())
	}
	if c.ID() != "c3/X" {
		t.Fatalf("ID = %q", c.ID())
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindLogic: "logic", KindArray: "array", KindWire: "wire", KindVR: "vr", Kind(9): "kind(9)"}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestComponentNames(t *testing.T) {
	want := map[string]bool{"FPMul": true, "L2": true, "Router": true, "VR": true, "ICache": true}
	for _, c := range TileComponents() {
		delete(want, c.Name)
	}
	if len(want) != 0 {
		t.Fatalf("missing expected names: %v", want)
	}
}

// Property: for arbitrary chip grids, area is conserved, nothing overlaps,
// and every component's neighbours are mutual.
func TestChipInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(3)
		cols := 1 + rng.Intn(3)
		chip := NewChip(rows, cols)
		if chip.Overlaps() {
			return false
		}
		if math.Abs(chip.TotalComponentArea()-chip.Area()) > 1e-6 {
			return false
		}
		// Every core has exactly 18 components.
		for core := 0; core < chip.NumCores(); core++ {
			if len(chip.CoreComponents(core)) != componentsPerTile {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// allPairsAdjacency is the reference Adjacency: sharedEdge on every pair.
func allPairsAdjacency(c *Chip) []Edge {
	var edges []Edge
	n := len(c.Components)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if l := sharedEdge(c.Components[i], c.Components[j]); l > 0 {
				edges = append(edges, Edge{A: i, B: j, Length: l})
			}
		}
	}
	return edges
}

func sameEdges(t *testing.T, name string, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, all-pairs reference %d", name, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.A != w.A || g.B != w.B || math.Float64bits(g.Length) != math.Float64bits(w.Length) {
			t.Fatalf("%s: edge %d = %+v, reference %+v", name, k, g, w)
		}
	}
}

// guillotine splits the rectangle (x, y, w, h) at random into about n
// rectangles, each cut at a random fraction (or a round one, so that many
// edges line up exactly across cuts).
func guillotine(rng *rand.Rand, x, y, w, h float64, n int, out []FLPUnit) []FLPUnit {
	if n <= 1 {
		return append(out, FLPUnit{Name: fmt.Sprintf("u%d", len(out)), X: x, Y: y, W: w, H: h})
	}
	f := 0.2 + 0.6*rng.Float64()
	if rng.Intn(2) == 0 {
		f = 0.5
	}
	k := 1 + rng.Intn(n-1)
	if w > h {
		cut := w * f
		out = guillotine(rng, x, y, cut, h, k, out)
		return guillotine(rng, x+cut, y, w-cut, h, n-k, out)
	}
	cut := h * f
	out = guillotine(rng, x, y, w, cut, k, out)
	return guillotine(rng, x, y+cut, w, h-cut, n-k, out)
}

// TestAdjacencyMatchesAllPairs: the sweep returns the all-pairs edge list
// exactly — the same pairs in the same order, every length bitwise — on
// the SCC16 and quad chips, a chip read back from its .flp export, and
// random tilings, some with jittered edges and with degenerate units
// (zero, non-finite or negative extents).
func TestAdjacencyMatchesAllPairs(t *testing.T) {
	var flp bytes.Buffer
	if err := WriteFLP(&flp, NewSCC16()); err != nil {
		t.Fatal(err)
	}
	units, err := ReadFLP(&flp)
	if err != nil {
		t.Fatal(err)
	}
	fromFLP, err := ChipFromFLP(units)
	if err != nil {
		t.Fatal(err)
	}
	chips := map[string]*Chip{"scc16": NewSCC16(), "quad": NewQuad(), "scc16.flp": fromFLP}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		units := guillotine(rng, 0, 0, 2+8*rng.Float64(), 2+8*rng.Float64(), 2+rng.Intn(120), nil)
		if trial%3 == 1 {
			for i := range units {
				units[i].X += (rng.Float64() - 0.5) * 3 * adjTol
				units[i].W += (rng.Float64() - 0.5) * 3 * adjTol
			}
		}
		if trial%3 == 2 {
			odd := []FLPUnit{
				{X: 1, Y: 1, W: 0, H: 1},
				{X: 1, Y: 1, W: math.NaN(), H: 1},
				{X: math.Inf(1), Y: 0, W: 1, H: 1},
				{X: 0.5, Y: 0.5, W: -0.25, H: 1},
				{X: 0, Y: 0, W: 1, H: math.NaN()},
			}
			for i, u := range odd {
				u.Name = fmt.Sprintf("odd%d", i)
				units = append(units, u)
			}
		}
		chip, err := ChipFromFLP(units)
		if err != nil {
			t.Fatal(err)
		}
		chips[fmt.Sprintf("tiling-%d", trial)] = chip
	}
	for name, chip := range chips {
		want := allPairsAdjacency(chip)
		if len(want) == 0 && len(chip.Components) > 1 {
			t.Fatalf("%s: no edges; the case checks nothing", name)
		}
		sameEdges(t, name, chip.Adjacency(), want)
	}
}
