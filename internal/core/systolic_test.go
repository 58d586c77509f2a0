package core

import (
	"math"
	"testing"

	"tecfan/internal/systolic"
	"tecfan/internal/testenv"
)

func TestPaperSystolicNumbers(t *testing.T) {
	// §III-E: 18×3 = 54 eight-bit multipliers on a 200 mm² die must cost
	// less than 1.7 % extra area and power.
	c := PaperSystolic(200, 100)
	if c.Multipliers != 54 {
		t.Fatalf("multipliers = %d, want 54", c.Multipliers)
	}
	if c.AreaOverhead >= 0.017 {
		t.Fatalf("area overhead %.4f ≥ 1.7%%", c.AreaOverhead)
	}
	if c.PowerW >= 1.7 {
		t.Fatalf("systolic power %.2f W implausible", c.PowerW)
	}
	// An 8-bit multiplier is a quarter of the 16-bit area datapoint.
	wantArea := Mult16Area65nm / 4 * 54
	if math.Abs(c.AreaMM2-wantArea) > 1e-9 {
		t.Fatalf("area %.4f, want %.4f", c.AreaMM2, wantArea)
	}
	// Power uses the POWER6 FPU density.
	if math.Abs(c.PowerW-c.AreaMM2*FPUPowerDensity) > 1e-9 {
		t.Fatalf("power %.4f inconsistent with density", c.PowerW)
	}
}

func TestPaperSingleMultiplierExample(t *testing.T) {
	// The paper's intermediate checkpoint: one 16-bit multiplier on a
	// 200 mm² die is 0.03 % area and ~0.03 W.
	c := EstimateSystolic(1, 1, 16, 200, 0)
	if math.Abs(c.AreaOverhead-0.057/200) > 1e-9 {
		t.Fatalf("single multiplier overhead %.5f", c.AreaOverhead)
	}
	if c.AreaOverhead > 0.0004 {
		t.Fatalf("overhead %.5f, paper says 0.03%%", c.AreaOverhead)
	}
	if math.Abs(c.PowerW-0.057*0.56) > 1e-6 {
		t.Fatalf("power %.4f, paper says ≈0.03 W", c.PowerW)
	}
}

func TestEstimateSystolicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EstimateSystolic(0, 3, 8, 200, 100)
}

func TestCoreBandModel(t *testing.T) {
	e := testenv.NewQuad()
	m, err := NewCoreBandModel(e.NW, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.G.Rows != 18 {
		t.Fatalf("core sub-matrix is %d×%d", m.G.Rows, m.G.Cols)
	}
	// The premise of §III-E: the per-core conductance matrix is banded —
	// far narrower than a full 18×18 matrix.
	if m.KL >= 17 || m.KU >= 17 {
		t.Fatalf("band (%d,%d) is full-width; floorplan ordering broken", m.KL, m.KU)
	}
	if m.MACsPerEval >= 18*18 {
		t.Fatalf("MACs %d not better than dense", m.MACsPerEval)
	}
	if m.MACsPerEval <= 0 {
		t.Fatal("no MACs")
	}
	// Band mat-vec agrees with the dense sub-matrix.
	x := make([]float64, 18)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	q1 := make([]float64, 18)
	q2 := make([]float64, 18)
	m.EvalTemp(x, q1)
	m.G.MulVec(x, q2)
	for i := range q1 {
		if math.Abs(q1[i]-q2[i]) > 1e-9 {
			t.Fatalf("band and dense disagree at %d: %v vs %v", i, q1[i], q2[i])
		}
	}
}

func TestCoreBandModelAllCores(t *testing.T) {
	e := testenv.NewQuad()
	var first *CoreBandModel
	for core := 0; core < 4; core++ {
		m, err := NewCoreBandModel(e.NW, core)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = m
		} else if m.KL != first.KL || m.KU != first.KU {
			t.Fatalf("core %d band (%d,%d) differs from core 0 (%d,%d); tiles are identical",
				core, m.KL, m.KU, first.KL, first.KU)
		}
	}
}

func TestScaledEngineAgainstFloat(t *testing.T) {
	e := testenv.NewQuad()
	m, err := NewCoreBandModel(e.NW, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Temperatures around a hot operating point, expressed relative to a
	// 75 °C bias so they fit the 8-bit format.
	tAbs := make([]float64, 18)
	tRel := make([]float64, 18)
	for i := range tAbs {
		tAbs[i] = 70 + 2*float64(i%8)
		tRel[i] = tAbs[i] - 75
	}
	want := make([]float64, 18)
	m.EvalTemp(tRel, want)

	for _, q := range []systolic.Q{systolic.Q{Bits: 16, Frac: 7}, systolic.Q8} {
		eng, err := m.Engine(q)
		if err != nil {
			t.Fatalf("Engine(%d-bit): %v", q.Bits, err)
		}
		got := make([]float64, 18)
		st, err := eng.Eval(tRel, got)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycles != 18+st.PEs-1 {
			t.Fatalf("%d-bit: cycles %d, want %d", q.Bits, st.Cycles, 18+st.PEs-1)
		}
		// The comparison use-case of §III-E: the fixed-point result must
		// track the float result closely enough that per-component heat
		// flows keep their relative order of magnitude. Bound the absolute
		// error by the engine's analytical bound.
		bound := eng.Arr.QuantizationError(16, q.Max()) / eng.Scale
		for i := range want {
			if diff := got[i] - want[i]; diff > bound || diff < -bound {
				t.Fatalf("%d-bit row %d: %v vs %v exceeds bound %v", q.Bits, i, got[i], want[i], bound)
			}
		}
	}
}

func TestScaledEngineErrors(t *testing.T) {
	e := testenv.NewQuad()
	m, _ := NewCoreBandModel(e.NW, 0)
	eng, err := m.Engine(systolic.Q8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(make([]float64, 3), make([]float64, 18)); err == nil {
		t.Fatal("short input accepted")
	}
	if eng.Scale <= 0 {
		t.Fatalf("scale %v", eng.Scale)
	}
}

// The §III-E per-core evaluation path: a single band solve against frozen
// boundary sensors must reproduce the full-network steady solution when the
// boundary temperatures come from that solution (self-consistency), and
// track it closely when the boundary is slightly stale.
func TestBandEstimatorMatchesFullSolve(t *testing.T) {
	e := testenv.NewQuad()
	be, err := NewBandEstimator(e.NW)
	if err != nil {
		t.Fatal(err)
	}
	// Concentrated power map.
	p := make([]float64, len(e.Chip.Components))
	for core := 0; core < 4; core++ {
		for _, i := range e.Chip.CoreComponents(core) {
			c := e.Chip.Components[i]
			p[i] = 5.0 * c.Area() / 9.36
			if c.Name == "FPMul" {
				p[i] *= 3
			}
		}
	}
	full, err := e.NW.Steady(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 4; core++ {
		out := make([]float64, 18)
		if _, err := be.EvalCore(core, p, full, out); err != nil {
			t.Fatal(err)
		}
		// Self-consistency: with exact boundary the band solve returns the
		// full solution restricted to the core.
		for li, gi := range e.Chip.CoreComponents(core) {
			if math.Abs(out[li]-full[gi]) > 1e-6 {
				t.Fatalf("core %d comp %d: band %.4f vs full %.4f", core, gi, out[li], full[gi])
			}
		}
		comp, peak, err := be.PeakCore(core, p, full)
		if err != nil {
			t.Fatal(err)
		}
		wantComp, wantPeak := e.NW.CorePeak(full, core)
		if comp != wantComp || math.Abs(peak-wantPeak) > 1e-6 {
			t.Fatalf("core %d peak (%d, %.3f) vs full (%d, %.3f)", core, comp, peak, wantComp, wantPeak)
		}
	}
	// Stale boundary: perturb the sensor field by ±0.5 °C; the per-core
	// prediction error stays the same order (bounded boundary sensitivity).
	stale := append([]float64(nil), full...)
	for i := range stale {
		if i%2 == 0 {
			stale[i] += 0.5
		} else {
			stale[i] -= 0.5
		}
	}
	out := make([]float64, 18)
	if _, err := be.EvalCore(1, p, stale, out); err != nil {
		t.Fatal(err)
	}
	for li, gi := range e.Chip.CoreComponents(1) {
		if d := math.Abs(out[li] - full[gi]); d > 1.0 {
			t.Fatalf("stale boundary blew up component %d by %.2f °C", gi, d)
		}
	}
}

func TestBandEstimatorShapeError(t *testing.T) {
	e := testenv.NewQuad()
	be, err := NewBandEstimator(e.NW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.EvalCore(0, make([]float64, len(e.Chip.Components)), make([]float64, e.NW.NumNodes()), make([]float64, 3)); err == nil {
		t.Fatal("short output accepted")
	}
}
