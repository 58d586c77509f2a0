package floorplan

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"tecfan/internal/floats"
)

// HotSpot .flp interop. HotSpot (the paper's §IV-B thermal simulator) reads
// floorplans as whitespace-separated lines of
//
//	<unit-name> <width-m> <height-m> <left-x-m> <bottom-y-m>
//
// with '#' comments, dimensions in metres, and a bottom-left origin. This
// file converts between that format and our Chip (millimetres, top-left
// origin), so floorplans can round-trip with real HotSpot assets: our core
// tiles can be analysed by stock HotSpot, and HotSpot floorplans can drive
// this library's thermal and placement machinery.

// WriteFLP emits the chip's components in HotSpot .flp format. Names are
// the globally unique "cN_Name" identifiers (HotSpot forbids '/').
func WriteFLP(w io.Writer, chip *Chip) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %dx%d-tile CMP floorplan, %g x %g mm (tecfan)\n",
		chip.TileRows, chip.TileCols, chip.W, chip.H)
	fmt.Fprintln(bw, "# unit-name\twidth\theight\tleft-x\tbottom-y")
	for _, c := range chip.Components {
		// HotSpot's origin is bottom-left; ours top-left.
		bottom := chip.H - (c.Y + c.H)
		fmt.Fprintf(bw, "c%d_%s\t%.6e\t%.6e\t%.6e\t%.6e\n",
			c.Core, c.Name, c.W*mmToM, c.H*mmToM, c.X*mmToM, bottom*mmToM)
	}
	return bw.Flush()
}

const mmToM = 1e-3

// FLPUnit is one parsed HotSpot floorplan unit in this library's
// conventions (mm, top-left origin).
type FLPUnit struct {
	Name string
	X, Y float64 // top-left, mm
	W, H float64 // mm
}

// ReadFLP parses a HotSpot .flp stream. The die height must be supplied by
// the caller only when the file leaves it ambiguous; passing 0 infers it
// from the bounding box of the units.
func ReadFLP(r io.Reader) ([]FLPUnit, error) {
	sc := bufio.NewScanner(r)
	type raw struct {
		name          string
		w, h, x, bttm float64
	}
	var rows []raw
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 5 {
			return nil, fmt.Errorf("floorplan: flp line %d: %d fields, want ≥5", line, len(fields))
		}
		var vals [4]float64
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("floorplan: flp line %d field %d: %w", line, i+2, err)
			}
			if i < 2 && v <= 0 {
				return nil, fmt.Errorf("floorplan: flp line %d: non-positive dimension %v", line, v)
			}
			vals[i] = v
		}
		rows = append(rows, raw{name: fields[0], w: vals[0], h: vals[1], x: vals[2], bttm: vals[3]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("floorplan: empty flp")
	}
	// Infer the die height from the bounding box to flip the y axis.
	var dieH float64
	for _, r := range rows {
		if top := r.bttm + r.h; top > dieH {
			dieH = top
		}
	}
	units := make([]FLPUnit, len(rows))
	for i, r := range rows {
		units[i] = FLPUnit{
			Name: r.name,
			W:    r.w / mmToM,
			H:    r.h / mmToM,
			X:    r.x / mmToM,
			Y:    (dieH - (r.bttm + r.h)) / mmToM,
		}
	}
	return units, nil
}

// ChipFromFLP reconstructs a Chip-like single-"core" floorplan from parsed
// units: every unit becomes a component of core 0 with kind inferred from
// its name (cache/reg/tlb-ish names become arrays). It lets HotSpot
// floorplans drive the thermal network directly.
func ChipFromFLP(units []FLPUnit) (*Chip, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("floorplan: no units")
	}
	var w, h float64
	for _, u := range units {
		if u.X+u.W > w {
			w = u.X + u.W
		}
		if u.Y+u.H > h {
			h = u.Y + u.H
		}
	}
	chip := &Chip{
		TileRows: 1, TileCols: 1,
		W: w, H: h,
		index: make(map[string]int),
	}
	seen := map[string]bool{}
	for _, u := range units {
		if seen[u.Name] {
			return nil, fmt.Errorf("floorplan: duplicate unit %q", u.Name)
		}
		seen[u.Name] = true
		comp := Component{
			Name: u.Name,
			Core: 0,
			Kind: kindFromName(u.Name),
			X:    u.X, Y: u.Y, W: u.W, H: u.H,
		}
		chip.index[comp.ID()] = len(chip.Components)
		chip.Components = append(chip.Components, comp)
	}
	// Deterministic order: sort by (Y, X) so downstream band extraction is
	// stable regardless of file order.
	sort.SliceStable(chip.Components, func(a, b int) bool {
		ca, cb := chip.Components[a], chip.Components[b]
		if !floats.Same(ca.Y, cb.Y) {
			return ca.Y < cb.Y
		}
		return ca.X < cb.X
	})
	for i, c := range chip.Components {
		chip.index[c.ID()] = i
	}
	chip.indexCores()
	return chip, nil
}

// kindFromName guesses a component kind from typical HotSpot unit names.
func kindFromName(name string) Kind {
	n := strings.ToLower(name)
	switch {
	case strings.Contains(n, "cache") || strings.Contains(n, "reg") ||
		strings.Contains(n, "tlb") || strings.Contains(n, "btb") ||
		strings.Contains(n, "bpred") || strings.Contains(n, "l2") ||
		strings.Contains(n, "itb") || strings.Contains(n, "dtb"):
		return KindArray
	case strings.Contains(n, "router") || strings.Contains(n, "link") ||
		strings.Contains(n, "bus"):
		return KindWire
	case strings.Contains(n, "vr") || strings.Contains(n, "regulator"):
		return KindVR
	default:
		return KindLogic
	}
}
