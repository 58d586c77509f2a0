package thermal

import (
	"math"
	"testing"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/tec"
)

func newGrid(t *testing.T, chip *floorplan.Chip, cell float64) *Grid {
	t.Helper()
	g, err := NewGrid(chip, fan.DynatronR16(), DefaultParams(), cell)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridShape(t *testing.T) {
	chip := floorplan.NewQuad()
	g := newGrid(t, chip, 0.2)
	if g.Nx <= 0 || g.Ny <= 0 {
		t.Fatalf("grid %dx%d", g.Nx, g.Ny)
	}
	// 5.2 mm wide at ~0.2 mm cells → 26 columns.
	if g.Nx != 26 {
		t.Fatalf("Nx = %d, want 26", g.Nx)
	}
	if g.NumCells() != g.Nx*g.Ny {
		t.Fatal("cell count inconsistent")
	}
	if _, err := NewGrid(chip, fan.DynatronR16(), DefaultParams(), 0); err == nil {
		t.Fatal("zero cell size accepted")
	}
}

func TestGridCoverComplete(t *testing.T) {
	chip := floorplan.NewQuad()
	g := newGrid(t, chip, 0.2)
	// Every component's cover fractions must sum to 1 (its area is fully
	// tiled by cells).
	for ci := range chip.Components {
		var sum float64
		for _, cf := range g.cover[ci] {
			sum += cf.frac
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("component %d cover sums to %v", ci, sum)
		}
	}
}

func TestGridEnergyBalance(t *testing.T) {
	chip := floorplan.NewQuad()
	g := newGrid(t, chip, 0.25)
	p := make([]float64, len(chip.Components))
	total := 35.0
	for i, c := range chip.Components {
		p[i] = total * c.Area() / chip.Area()
	}
	temps, err := g.Steady(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Fan.Conductance(1) * (temps[g.sinkNode] - g.Params.AmbientC)
	if math.Abs(out-total)/total > 1e-4 {
		t.Fatalf("grid energy balance: in %.3f W out %.3f W", total, out)
	}
}

func TestGridValidatesCompactModel(t *testing.T) {
	// The central validation: the compact per-component network and the
	// fine grid must agree on component temperatures and the peak for a
	// realistic concentrated power map.
	chip := floorplan.NewQuad()
	nw := NewNetwork(chip, fan.DynatronR16(), DefaultParams())
	g := newGrid(t, chip, 0.15)

	p := make([]float64, len(chip.Components))
	// lu-style: one hot FPMul, moderate background.
	for _, i := range chip.CoreComponents(1) {
		c := chip.Components[i]
		p[i] = 5.0 * c.Area() / 9.36
		if c.Name == "FPMul" {
			p[i] *= 5
		}
	}
	for core := 0; core < 4; core++ {
		if core == 1 {
			continue
		}
		for _, i := range chip.CoreComponents(core) {
			p[i] = 1.5 * chip.Components[i].Area() / 9.36
		}
	}

	compact, err := nw.Steady(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	gridT, err := g.Steady(p, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Component-mean agreement: the bulk of the floorplan must agree
	// tightly; the concentrated hot spot is allowed the classic block-model
	// concentration bias, and only in the conservative direction (the
	// compact model over-predicts the hot component, never under-predicts).
	hotIdx := chip.Lookup(1, "FPMul")
	for i := range chip.Components {
		gm := g.ComponentMean(gridT, i)
		d := math.Abs(gm - compact[i])
		if i == hotIdx {
			if d > 7 {
				t.Fatalf("hot-spot divergence %.2f °C too large", d)
			}
			if compact[i] < gm-0.5 {
				t.Fatalf("compact model under-predicts the hot spot: %.2f vs grid %.2f", compact[i], gm)
			}
			continue
		}
		if d > 2.0 {
			t.Fatalf("%s diverges by %.2f °C", chip.Components[i].ID(), d)
		}
	}

	// Peak agreement: both models must put the peak on the hot FPMul, and
	// the compact peak must bound the grid peak from above (the lumped
	// lateral conductances under-estimate spreading, which is the safe
	// direction for thermal management) without exaggerating it wildly.
	hotComp, compactPeak := nw.PeakDie(compact)
	peakCell, gridPeak := g.PeakCell(gridT)
	if chip.Components[hotComp].Name != "FPMul" {
		t.Fatalf("compact peak on %s, want FPMul", chip.Components[hotComp].Name)
	}
	if gridPeak > compactPeak+0.5 {
		t.Fatalf("grid peak %.2f exceeds compact %.2f: compact model is not conservative", gridPeak, compactPeak)
	}
	if gridPeak < compactPeak-7 {
		t.Fatalf("grid peak %.2f far below compact %.2f: compact model exaggerates", gridPeak, compactPeak)
	}
	// The hottest grid cell must lie inside the hot FPMul's rectangle.
	hc := chip.Components[hotIdx]
	cw, ch := g.cellDims()
	cx := (float64(peakCell%g.Nx) + 0.5) * cw
	cy := (float64(peakCell/g.Nx) + 0.5) * ch
	if cx < hc.X || cx > hc.X+hc.W || cy < hc.Y || cy > hc.Y+hc.H {
		t.Fatalf("grid peak cell at (%.2f, %.2f) outside the hot FPMul", cx, cy)
	}
}

func TestGridMonotoneInFan(t *testing.T) {
	chip := floorplan.NewQuad()
	g := newGrid(t, chip, 0.3)
	p := make([]float64, len(chip.Components))
	for i, c := range chip.Components {
		p[i] = 30 * c.Area() / chip.Area()
	}
	var prev float64 = -1
	for level := 0; level < g.Fan.NumLevels(); level++ {
		temps, err := g.Steady(p, level)
		if err != nil {
			t.Fatal(err)
		}
		_, peak := g.PeakCell(temps)
		if peak <= prev {
			t.Fatalf("grid peak not increasing with slower fan at level %d", level)
		}
		prev = peak
	}
}

func TestGridBadPowerVector(t *testing.T) {
	g := newGrid(t, floorplan.NewQuad(), 0.3)
	if _, err := g.Steady(make([]float64, 3), 0); err == nil {
		t.Fatal("short power vector accepted")
	}
}

func TestGridTransientConvergesToSteady(t *testing.T) {
	chip := floorplan.NewQuad()
	g := newGrid(t, chip, 0.35)
	p := make([]float64, len(chip.Components))
	for i, c := range chip.Components {
		p[i] = 25 * c.Area() / chip.Area()
	}
	steady, err := g.Steady(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.NewTransient(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, len(steady))
	for i := range temps {
		temps[i] = g.Params.AmbientC
	}
	for step := 0; step < 3000; step++ {
		if err := tr.Step(temps, p, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := range temps {
		if math.Abs(temps[i]-steady[i]) > 0.15 {
			t.Fatalf("node %d: transient %.3f vs steady %.3f", i, temps[i], steady[i])
		}
	}
}

func TestGridTransientErrors(t *testing.T) {
	g := newGrid(t, floorplan.NewQuad(), 0.4)
	if _, err := g.NewTransient(0, 0); err == nil {
		t.Fatal("dt=0 accepted")
	}
	tr, _ := g.NewTransient(0, 0.1)
	if err := tr.Step(make([]float64, 3), make([]float64, len(g.Chip.Components)), 0); err == nil {
		t.Fatal("short temperature vector accepted")
	}
}

// The compact model's transient and the grid's transient agree on the
// trajectory of the sink (the slowest state), validating the reduced
// model's dynamics, not just its fixed point.
func TestGridTransientMatchesCompactSink(t *testing.T) {
	chip := floorplan.NewQuad()
	nw := NewNetwork(chip, fan.DynatronR16(), DefaultParams())
	g := newGrid(t, chip, 0.35)
	p := make([]float64, len(chip.Components))
	for i, c := range chip.Components {
		p[i] = 30 * c.Area() / chip.Area()
	}
	ctr, err := nw.NewTransient(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gtr, err := g.NewTransient(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]float64, nw.NumNodes())
	gt := make([]float64, g.n)
	for i := range ct {
		ct[i] = nw.Params.AmbientC
	}
	for i := range gt {
		gt[i] = g.Params.AmbientC
	}
	for step := 1; step <= 600; step++ {
		ctr.Step(ct, p, nil)
		if err := gtr.Step(gt, p, 1); err != nil {
			t.Fatal(err)
		}
		if step%100 == 0 {
			d := math.Abs(ct[nw.sinkNode] - gt[g.sinkNode])
			if d > 0.3 {
				t.Fatalf("sink trajectories diverge by %.3f °C at step %d", d, step)
			}
		}
	}
}

// TEC cooling on the grid: the compact model's Peltier treatment (per-
// component apportioning) must agree with the grid's exact-footprint
// treatment on the hot spot's relief.
func TestGridTECMatchesCompact(t *testing.T) {
	chip := floorplan.NewQuad()
	nw := NewNetwork(chip, fan.DynatronR16(), DefaultParams())
	g := newGrid(t, chip, 0.15)
	p := make([]float64, len(chip.Components))
	hot := chip.Lookup(1, "FPMul")
	for _, i := range chip.CoreComponents(1) {
		c := chip.Components[i]
		p[i] = 5.0 * c.Area() / 9.36
	}
	p[hot] *= 5

	ts := tec.NewState(tec.Array(chip, tec.DefaultDevice()))
	for _, l := range ts.CoreDevices(1) {
		ts.Set(l, true)
	}
	ts.Advance(1)

	cOff, err := nw.Steady(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cOn, err := nw.Steady(p, 1, ts)
	if err != nil {
		t.Fatal(err)
	}
	gOff, err := g.Steady(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	gOn, err := g.SteadyTEC(p, 1, ts)
	if err != nil {
		t.Fatal(err)
	}
	compactRelief := cOff[hot] - cOn[hot]
	gridRelief := g.ComponentMean(gOff, hot) - g.ComponentMean(gOn, hot)
	if compactRelief <= 0 || gridRelief <= 0 {
		t.Fatalf("no relief: compact %.2f grid %.2f", compactRelief, gridRelief)
	}
	// Same order of magnitude and within 40 % of each other — the models
	// apportion the pumped heat differently (per component vs exact
	// footprint) but must agree on the effect size.
	ratio := compactRelief / gridRelief
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("TEC relief disagrees: compact %.2f °C vs grid %.2f °C", compactRelief, gridRelief)
	}
}
