package power

import (
	"math"
	"testing"
	"testing/quick"

	"tecfan/internal/floorplan"
)

func TestSCCTableShape(t *testing.T) {
	tbl := SCCTable()
	if tbl.Num() != 6 {
		t.Fatalf("SCC table has %d levels, paper uses M=6", tbl.Num())
	}
	if tbl.Max() != 5 {
		t.Fatalf("Max = %d", tbl.Max())
	}
	for i := 1; i < tbl.Num(); i++ {
		if tbl.Levels[i].Freq <= tbl.Levels[i-1].Freq {
			t.Fatalf("frequency not increasing at level %d", i)
		}
		if tbl.Levels[i].Vdd < tbl.Levels[i-1].Vdd {
			t.Fatalf("voltage decreasing at level %d", i)
		}
	}
}

func TestI7TableShape(t *testing.T) {
	tbl := I7Table()
	if tbl.Num() != 5 {
		t.Fatalf("i7 table has %d levels", tbl.Num())
	}
	if tbl.Levels[tbl.Max()].Freq != 3.5 {
		t.Fatalf("i7 nominal = %v GHz, want 3.5", tbl.Levels[tbl.Max()].Freq)
	}
}

func TestDynScaleEq7(t *testing.T) {
	tbl := SCCTable()
	// Eq. (7): (F2/F1)·(V2/V1)².
	got := tbl.DynScale(5, 0)
	want := (1.0 / 2.0) * math.Pow(0.75/1.10, 2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("DynScale(max→min) = %v, want %v", got, want)
	}
	// Moving max→min must cut dynamic power by the famous cubic-ish factor.
	if got > 0.30 {
		t.Fatalf("DVFS headroom only %.2f; the paper's cubic argument needs ~4x", got)
	}
	if tbl.DynScale(2, 2) != 1 {
		t.Fatal("identity scale must be 1")
	}
}

func TestDynScaleInverse(t *testing.T) {
	tbl := SCCTable()
	f := func(a, b uint8) bool {
		i := int(a) % tbl.Num()
		j := int(b) % tbl.Num()
		return math.Abs(tbl.DynScale(i, j)*tbl.DynScale(j, i)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFreqRatio(t *testing.T) {
	tbl := SCCTable()
	if got := tbl.FreqRatio(5, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("FreqRatio(max→min) = %v, want 0.5", got)
	}
	if got := tbl.ScaleFromMax(5); got != 1 {
		t.Fatalf("ScaleFromMax(max) = %v", got)
	}
	if tbl.ScaleFromMax(0) >= tbl.ScaleFromMax(3) {
		t.Fatal("ScaleFromMax not monotone")
	}
}

func TestClampAndPanic(t *testing.T) {
	tbl := SCCTable()
	if tbl.Clamp(-1) != 0 || tbl.Clamp(99) != 5 || tbl.Clamp(3) != 3 {
		t.Fatal("Clamp wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tbl.DynScale(0, 7)
}

func TestLeakageCalibrationPoints(t *testing.T) {
	l := DefaultLeakage()
	// The quadratic must pass through the SCC calibration points.
	for _, pt := range []struct{ tC, w float64 }{{45, 10}, {70, 16}, {90, 24}} {
		if got := l.QuadChip(pt.tC); math.Abs(got-pt.w) > 0.05 {
			t.Fatalf("QuadChip(%v) = %v, want %v", pt.tC, got, pt.w)
		}
	}
	// The linear model is tangent at TTDP: equal value and slope there.
	if math.Abs(l.LinearChip(l.TTDP)-l.QuadChip(l.TTDP)) > 1e-9 {
		t.Fatal("linear and quadratic must agree at TTDP")
	}
	h := 0.5
	quadSlope := (l.QuadChip(l.TTDP+h) - l.QuadChip(l.TTDP-h)) / (2 * h)
	if math.Abs(quadSlope-l.Alpha) > 1e-9 {
		t.Fatalf("Alpha = %v, quadratic slope at TTDP = %v", l.Alpha, quadSlope)
	}
}

func TestLeakageMonotoneInRange(t *testing.T) {
	l := DefaultLeakage()
	for tc := 40.0; tc < 110; tc += 1 {
		if l.QuadChip(tc+1) <= l.QuadChip(tc) {
			t.Fatalf("quad leakage not increasing at %v °C", tc)
		}
		if l.LinearChip(tc+1) <= l.LinearChip(tc) {
			t.Fatalf("linear leakage not increasing at %v °C", tc)
		}
	}
}

func TestLeakageClamp(t *testing.T) {
	l := DefaultLeakage()
	if l.LinearChip(-500) != 0 {
		t.Fatal("linear leakage must clamp at 0")
	}
	if l.QuadChip(23.75) < 0 {
		t.Fatal("quad leakage negative")
	}
}

func TestLinearUnderestimatesBelowTTDP(t *testing.T) {
	// The tangent at TTDP lies below the convex quadratic elsewhere — the
	// controller's Eq. (6) model slightly underestimates leakage at low
	// temperature, one source of model-vs-truth gap in the experiments.
	l := DefaultLeakage()
	for tc := 45.0; tc < 89; tc += 5 {
		if l.LinearChip(tc) > l.QuadChip(tc)+1e-9 {
			t.Fatalf("tangent above quadratic at %v °C", tc)
		}
	}
}

func TestPerComponent(t *testing.T) {
	chip := floorplan.NewQuad()
	l := DefaultLeakage()
	temps := make([]float64, len(chip.Components)+5)
	for i := range temps {
		temps[i] = 70
	}
	out := make([]float64, len(chip.Components))
	l.PerComponent(chip, temps, ModelQuad, out)
	var sum float64
	for i, p := range out {
		if p < 0 {
			t.Fatalf("negative leakage at %d", i)
		}
		sum += p
	}
	if math.Abs(sum-l.QuadChip(70)) > 1e-9 {
		t.Fatalf("component leakage sums to %v, chip model says %v", sum, l.QuadChip(70))
	}
	// Linear model at mixed temperatures: hotter components leak more.
	fp0 := chip.Lookup(0, "FPMul")
	fp1 := chip.Lookup(1, "FPMul")
	temps[fp0] = 95
	temps[fp1] = 55
	l.PerComponent(chip, temps, ModelLinear, out)
	if out[fp0] <= out[fp1] {
		t.Fatal("hotter component must leak more")
	}
}

func TestPerComponentPanics(t *testing.T) {
	chip := floorplan.NewQuad()
	l := DefaultLeakage()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short output")
		}
	}()
	l.PerComponent(chip, make([]float64, 100), ModelQuad, make([]float64, 3))
}
