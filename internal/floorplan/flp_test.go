package floorplan

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFLPRoundTrip(t *testing.T) {
	chip := NewQuad()
	var buf bytes.Buffer
	if err := WriteFLP(&buf, chip); err != nil {
		t.Fatal(err)
	}
	units, err := ReadFLP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != len(chip.Components) {
		t.Fatalf("%d units, want %d", len(units), len(chip.Components))
	}
	// Every component must round-trip geometrically (name-keyed).
	byName := map[string]FLPUnit{}
	for _, u := range units {
		byName[u.Name] = u
	}
	for _, c := range chip.Components {
		name := strings.ReplaceAll(c.ID(), "/", "_")
		u, ok := byName[name]
		if !ok {
			t.Fatalf("unit %q missing after round trip", name)
		}
		if math.Abs(u.X-c.X) > 1e-6 || math.Abs(u.Y-c.Y) > 1e-6 ||
			math.Abs(u.W-c.W) > 1e-6 || math.Abs(u.H-c.H) > 1e-6 {
			t.Fatalf("%s moved: (%v,%v,%v,%v) vs (%v,%v,%v,%v)",
				name, u.X, u.Y, u.W, u.H, c.X, c.Y, c.W, c.H)
		}
	}
}

func TestReadFLPHotSpotSample(t *testing.T) {
	// A fragment in stock HotSpot ev6.flp style: metres, bottom-left origin.
	const flp = `
# comment line
Icache	3.175000e-03	3.175000e-03	0.000000e+00	1.270000e-02
Dcache	3.175000e-03	3.175000e-03	3.175000e-03	1.270000e-02
FPMul	2.000000e-03	1.000000e-03	0.000000e+00	0.000000e+00
`
	units, err := ReadFLP(strings.NewReader(flp))
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 {
		t.Fatalf("%d units", len(units))
	}
	// Die height inferred: top of the caches = 12.7 + 3.175 = 15.875 mm.
	// Icache sits at the TOP in our convention (y = 0).
	if units[0].Name != "Icache" || math.Abs(units[0].Y) > 1e-9 {
		t.Fatalf("Icache at y=%v, want 0 (top)", units[0].Y)
	}
	// FPMul at the bottom: y = 15.875 − 1 = 14.875 mm.
	if math.Abs(units[2].Y-14.875) > 1e-9 {
		t.Fatalf("FPMul y = %v, want 14.875", units[2].Y)
	}
	if math.Abs(units[0].W-3.175) > 1e-9 {
		t.Fatalf("Icache width %v mm", units[0].W)
	}
}

func TestReadFLPErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields": "a 1 2 3\n",
		"bad number":     "a x 2 3 4\n",
		"zero dimension": "a 0 2 3 4\n",
		"empty":          "# only a comment\n",
	}
	for name, flp := range cases {
		if _, err := ReadFLP(strings.NewReader(flp)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestChipFromFLP(t *testing.T) {
	const flp = `
core_Icache	2.0e-03	1.0e-03	0.0e+00	1.0e-03
core_FPMul	2.0e-03	1.0e-03	0.0e+00	0.0e+00
router0	1.0e-03	2.0e-03	2.0e-03	0.0e+00
`
	units, err := ReadFLP(strings.NewReader(flp))
	if err != nil {
		t.Fatal(err)
	}
	chip, err := ChipFromFLP(units)
	if err != nil {
		t.Fatal(err)
	}
	if len(chip.Components) != 3 {
		t.Fatalf("%d components", len(chip.Components))
	}
	if math.Abs(chip.W-3.0) > 1e-9 || math.Abs(chip.H-2.0) > 1e-9 {
		t.Fatalf("die %v x %v mm, want 3 x 2", chip.W, chip.H)
	}
	// Kind inference.
	if i := chip.Lookup(0, "core_Icache"); chip.Components[i].Kind != KindArray {
		t.Fatal("Icache not classified as array")
	}
	if i := chip.Lookup(0, "router0"); chip.Components[i].Kind != KindWire {
		t.Fatal("router not classified as wire")
	}
	if i := chip.Lookup(0, "core_FPMul"); chip.Components[i].Kind != KindLogic {
		t.Fatal("FPMul not classified as logic")
	}
	// Adjacency works on the imported plan.
	if len(chip.Adjacency()) == 0 {
		t.Fatal("imported floorplan has no adjacency")
	}
	if chip.Overlaps() {
		t.Fatal("imported floorplan overlaps")
	}
	checkCoreComponents(t, chip)
}

func TestChipFromFLPDuplicate(t *testing.T) {
	units := []FLPUnit{
		{Name: "a", W: 1, H: 1},
		{Name: "a", W: 1, H: 1, X: 1},
	}
	if _, err := ChipFromFLP(units); err == nil {
		t.Fatal("duplicate unit names accepted")
	}
	if _, err := ChipFromFLP(nil); err == nil {
		t.Fatal("empty unit list accepted")
	}
}
