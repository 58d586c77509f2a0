package thermal

import (
	"fmt"
	"math"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/linalg"
	"tecfan/internal/tec"
)

// Grid is the fine-resolution validation model: the same layered stack as
// Network, but with the die discretized into a uniform cell grid instead of
// one node per floorplan component — the analogue of HotSpot's grid mode
// versus its block mode. It exists to validate the compact model: the
// experiments run on Network (fast, control-oriented); Grid checks that
// lumping components into single nodes does not distort peaks or gradients
// (see TestGridValidatesCompactModel).
type Grid struct {
	Chip   *floorplan.Chip
	Fan    *fan.Model
	Params Params

	Nx, Ny int     // cells across / down the die
	Cell   float64 // cell edge, mm (square cells)

	n            int // total nodes: Nx*Ny die cells + cores + 1 sink
	spreaderBase int
	sinkNode     int
	mat          *linalg.CSR // conduction matrix, fan leg excluded
	// cover[c] lists (cell, fraction-of-component-area) for component c.
	cover [][]cellFrac
}

type cellFrac struct {
	cell int
	frac float64
}

// NewGrid discretizes the chip at the given cell size (mm). Cell sizes that
// do not divide the die evenly are shrunk to the next exact divisor.
func NewGrid(chip *floorplan.Chip, fm *fan.Model, p Params, cellMM float64) (*Grid, error) {
	if cellMM <= 0 {
		return nil, fmt.Errorf("thermal: non-positive cell size")
	}
	nx := int(math.Ceil(chip.W / cellMM))
	ny := int(math.Ceil(chip.H / cellMM))
	g := &Grid{
		Chip: chip, Fan: fm, Params: p,
		Nx: nx, Ny: ny,
		Cell:         chip.W / float64(nx), // exact divisor of the width
		spreaderBase: nx * ny,
		sinkNode:     nx*ny + chip.NumCores(),
	}
	// Use independent x/y cell dimensions if the aspect ratio demands it;
	// here the floorplan is close enough to square cells that forcing the
	// width divisor and checking height coverage suffices.
	g.n = g.sinkNode + 1
	g.assemble()
	g.computeCover()
	return g, nil
}

// cellIndex maps grid coordinates to a node index.
func (g *Grid) cellIndex(ix, iy int) int { return iy*g.Nx + ix }

// cellDims returns the physical cell dimensions (mm).
func (g *Grid) cellDims() (w, h float64) {
	return g.Chip.W / float64(g.Nx), g.Chip.H / float64(g.Ny)
}

// coreOfCell returns the core tile containing a cell's centre.
func (g *Grid) coreOfCell(ix, iy int) int {
	cw, ch := g.cellDims()
	cx := (float64(ix) + 0.5) * cw
	cy := (float64(iy) + 0.5) * ch
	col := int(cx / floorplan.TileW)
	row := int(cy / floorplan.TileH)
	if col >= g.Chip.TileCols {
		col = g.Chip.TileCols - 1
	}
	if row >= g.Chip.TileRows {
		row = g.Chip.TileRows - 1
	}
	return row*g.Chip.TileCols + col
}

// assemble builds the conduction matrix.
func (g *Grid) assemble() {
	p := g.Params
	cw, ch := g.cellDims()
	var items []linalg.Coord
	add := func(a, b int, cond float64) {
		items = append(items,
			linalg.Coord{Row: a, Col: a, Val: cond},
			linalg.Coord{Row: b, Col: b, Val: cond},
			linalg.Coord{Row: a, Col: b, Val: -cond},
			linalg.Coord{Row: b, Col: a, Val: -cond},
		)
	}
	// Lateral die conduction between adjacent cells.
	gx := p.DieConductivity * p.DieThickness * (ch * mm) / (cw * mm)
	gy := p.DieConductivity * p.DieThickness * (cw * mm) / (ch * mm)
	for iy := 0; iy < g.Ny; iy++ {
		for ix := 0; ix < g.Nx; ix++ {
			c := g.cellIndex(ix, iy)
			if ix+1 < g.Nx {
				add(c, g.cellIndex(ix+1, iy), gx)
			}
			if iy+1 < g.Ny {
				add(c, g.cellIndex(ix, iy+1), gy)
			}
		}
	}
	// Vertical die → spreader region per cell.
	rVert := p.DieThickness/p.DieConductivity + p.TIMThickness/p.TIMConductivity
	cellArea := cw * ch * mm * mm
	for iy := 0; iy < g.Ny; iy++ {
		for ix := 0; ix < g.Nx; ix++ {
			add(g.cellIndex(ix, iy), g.spreaderBase+g.coreOfCell(ix, iy), cellArea/rVert)
		}
	}
	// Spreader lateral + vertical, identical to the compact model.
	for core := 0; core < g.Chip.NumCores(); core++ {
		row := core / g.Chip.TileCols
		col := core % g.Chip.TileCols
		sp := g.spreaderBase + core
		add(sp, g.sinkNode, p.RegionSinkConductance)
		if col+1 < g.Chip.TileCols {
			l := floorplan.TileH * mm
			d := floorplan.TileW * mm
			add(sp, sp+1, p.SpreaderConductivity*p.SpreaderThickness*l/d*p.SpreaderLateralScale)
		}
		if row+1 < g.Chip.TileRows {
			l := floorplan.TileW * mm
			d := floorplan.TileH * mm
			add(sp, sp+g.Chip.TileCols, p.SpreaderConductivity*p.SpreaderThickness*l/d*p.SpreaderLateralScale)
		}
	}
	g.mat = linalg.NewCSR(g.n, items)
}

// computeCover precomputes component→cell area overlaps.
func (g *Grid) computeCover() {
	cw, ch := g.cellDims()
	g.cover = make([][]cellFrac, len(g.Chip.Components))
	for ci, comp := range g.Chip.Components {
		x0 := int(comp.X / cw)
		x1 := int(math.Ceil((comp.X + comp.W) / cw))
		y0 := int(comp.Y / ch)
		y1 := int(math.Ceil((comp.Y + comp.H) / ch))
		if x1 > g.Nx {
			x1 = g.Nx
		}
		if y1 > g.Ny {
			y1 = g.Ny
		}
		area := comp.Area()
		for iy := y0; iy < y1; iy++ {
			for ix := x0; ix < x1; ix++ {
				ox := math.Min(float64(ix+1)*cw, comp.X+comp.W) - math.Max(float64(ix)*cw, comp.X)
				oy := math.Min(float64(iy+1)*ch, comp.Y+comp.H) - math.Max(float64(iy)*ch, comp.Y)
				if ox > 0 && oy > 0 {
					g.cover[ci] = append(g.cover[ci], cellFrac{
						cell: g.cellIndex(ix, iy),
						frac: ox * oy / area,
					})
				}
			}
		}
	}
}

// NumCells returns the die cell count.
func (g *Grid) NumCells() int { return g.Nx * g.Ny }

// Steady solves the grid model for per-component powers (uniform density
// within each component) at a fan level. It returns per-node temperatures
// (cells first) via Jacobi-preconditioned CG.
func (g *Grid) Steady(compPower []float64, fanLevel int) ([]float64, error) {
	return g.SteadyTEC(compPower, fanLevel, nil)
}

// SteadyTEC is Steady with embedded TEC devices: engaged devices pump
// Peltier heat from the die cells they cover (exact device footprints on
// the grid, finer than the compact model's per-component apportioning)
// into their core's spreader region, plus split Joule heat. The linear
// Peltier terms are converged by the same fixed-point iteration the
// compact model uses.
func (g *Grid) SteadyTEC(compPower []float64, fanLevel int, ts *tec.State) ([]float64, error) {
	if len(compPower) != len(g.Chip.Components) {
		return nil, fmt.Errorf("thermal: power vector length %d, want %d", len(compPower), len(g.Chip.Components))
	}
	base := make([]float64, g.n)
	for ci, p := range compPower {
		for _, cf := range g.cover[ci] {
			base[cf.cell] += p * cf.frac
		}
	}
	gconv := g.Fan.Conductance(fanLevel)
	base[g.sinkNode] += gconv * g.Params.AmbientC

	mat := linalg.NewCSR(g.n, append(g.coords(), linalg.Coord{Row: g.sinkNode, Col: g.sinkNode, Val: gconv}))
	t := make([]float64, g.n)
	for i := range t {
		t[i] = g.Params.AmbientC
	}
	rhs := make([]float64, g.n)
	for iter := 0; iter < 50; iter++ {
		copy(rhs, base)
		g.peltierRHS(rhs, t, ts)
		prevPeak := maxSlice(t[:g.NumCells()])
		res := mat.SolveCG(rhs, t, linalg.CGOptions{Tol: 1e-9, MaxIter: 20 * g.n})
		if !res.Converged {
			return nil, fmt.Errorf("thermal: grid CG did not converge (residual %g)", res.Residual)
		}
		if ts == nil || math.Abs(maxSlice(t[:g.NumCells()])-prevPeak) < 1e-3 {
			return t, nil
		}
	}
	return nil, fmt.Errorf("thermal: grid Peltier fixed point did not converge")
}

// peltierRHS adds TEC source terms at grid resolution: each engaged device
// extracts Peltier heat from the cells under its exact footprint.
func (g *Grid) peltierRHS(rhs, t []float64, ts *tec.State) {
	if ts == nil {
		return
	}
	cw, ch := g.cellDims()
	for l := 0; l < ts.Len(); l++ {
		i := ts.Current(l)
		if i <= 0 {
			continue
		}
		pl := ts.Placement(l)
		sp := g.spreaderBase + pl.Core
		joule := pl.Device.JouleHeat(i)
		rhs[sp] += 0.5 * joule
		pump := ts.Engaged(l)
		// Cells overlapped by the device footprint.
		x0 := int(pl.X / cw)
		x1 := int(math.Ceil((pl.X + pl.Device.Width) / cw))
		y0 := int(pl.Y / ch)
		y1 := int(math.Ceil((pl.Y + pl.Device.Height) / ch))
		if x1 > g.Nx {
			x1 = g.Nx
		}
		if y1 > g.Ny {
			y1 = g.Ny
		}
		devArea := pl.Device.Width * pl.Device.Height
		for iy := y0; iy < y1; iy++ {
			for ix := x0; ix < x1; ix++ {
				ox := math.Min(float64(ix+1)*cw, pl.X+pl.Device.Width) - math.Max(float64(ix)*cw, pl.X)
				oy := math.Min(float64(iy+1)*ch, pl.Y+pl.Device.Height) - math.Max(float64(iy)*ch, pl.Y)
				if ox <= 0 || oy <= 0 {
					continue
				}
				frac := ox * oy / devArea
				cell := g.cellIndex(ix, iy)
				rhs[cell] += 0.5 * joule * frac
				if pump {
					q := pl.Device.PumpCoefficient(i) * frac * (t[cell] + 273.15)
					rhs[cell] -= q
					rhs[sp] += q
				}
			}
		}
	}
}

func maxSlice(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// coords re-extracts the base matrix triplets (cheap relative to the solve).
func (g *Grid) coords() []linalg.Coord {
	out := make([]linalg.Coord, 0, g.mat.NNZ())
	for r := 0; r < g.mat.N; r++ {
		for k := g.mat.RowPtr[r]; k < g.mat.RowPtr[r+1]; k++ {
			out = append(out, linalg.Coord{Row: r, Col: g.mat.ColIdx[k], Val: g.mat.Vals[k]})
		}
	}
	return out
}

// capacities returns the per-node heat capacities of the grid stack.
func (g *Grid) capacities() []float64 {
	p := g.Params
	cw, ch := g.cellDims()
	capn := make([]float64, g.n)
	cellCap := p.DieVolHeat * (cw * mm) * (ch * mm) * p.DieThickness * p.DieCapScale
	for i := 0; i < g.NumCells(); i++ {
		capn[i] = cellCap
	}
	tileArea := floorplan.TileW * floorplan.TileH * mm * mm
	for core := 0; core < g.Chip.NumCores(); core++ {
		capn[g.spreaderBase+core] = p.SpreaderVolHeat * tileArea * p.SpreaderAreaScale * p.SpreaderThickness
	}
	capn[g.sinkNode] = g.Fan.SinkCapacity
	return capn
}

// GridTransient integrates the grid model with backward Euler; each step
// solves the SPD system (C/dt + G)·T' = C/dt·T + P with CG, warm-started
// from the previous field.
type GridTransient struct {
	g     *Grid
	mat   *linalg.CSR
	capDt []float64 // capn[i]/dt
	rhs   []float64
}

// NewTransient builds a grid integrator for a fan level and step.
func (g *Grid) NewTransient(fanLevel int, dt float64) (*GridTransient, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive dt")
	}
	capDt := g.capacities()
	for i := range capDt {
		capDt[i] /= dt
	}
	items := g.coords()
	items = append(items, linalg.Coord{Row: g.sinkNode, Col: g.sinkNode, Val: g.Fan.Conductance(fanLevel)})
	for i, c := range capDt {
		items = append(items, linalg.Coord{Row: i, Col: i, Val: c})
	}
	return &GridTransient{
		g:     g,
		mat:   linalg.NewCSR(g.n, items),
		capDt: capDt,
		rhs:   make([]float64, g.n),
	}, nil
}

// Step advances t in place by one dt under per-component powers and a fan
// level fixed at construction.
func (tr *GridTransient) Step(t []float64, compPower []float64, fanLevel int) error {
	g := tr.g
	if len(compPower) != len(g.Chip.Components) || len(t) != g.n {
		return fmt.Errorf("thermal: grid transient shape mismatch")
	}
	// (C/dt)·t, with C/dt built once at construction: Go evaluates
	// capn[i]/dt*t[i] left to right, so the product keeps its bits.
	for i, c := range tr.capDt {
		tr.rhs[i] = c * t[i]
	}
	for ci, p := range compPower {
		for _, cf := range g.cover[ci] {
			tr.rhs[cf.cell] += p * cf.frac
		}
	}
	tr.rhs[g.sinkNode] += g.Fan.Conductance(fanLevel) * g.Params.AmbientC
	res := tr.mat.SolveCG(tr.rhs, t, linalg.CGOptions{Tol: 1e-9, MaxIter: 10 * g.n})
	if !res.Converged {
		return fmt.Errorf("thermal: grid transient CG stalled (residual %g)", res.Residual)
	}
	return nil
}

// PeakCell returns the hottest die cell and its temperature.
func (g *Grid) PeakCell(t []float64) (cell int, tC float64) {
	cell, tC = -1, math.Inf(-1)
	for i := 0; i < g.NumCells(); i++ {
		if t[i] > tC {
			cell, tC = i, t[i]
		}
	}
	return cell, tC
}

// ComponentMean returns the area-weighted mean temperature of a component's
// cells — directly comparable to the compact model's node temperature.
func (g *Grid) ComponentMean(t []float64, comp int) float64 {
	var sum, fr float64
	for _, cf := range g.cover[comp] {
		sum += t[cf.cell] * cf.frac
		fr += cf.frac
	}
	if fr == 0 {
		return math.NaN()
	}
	return sum / fr
}
