package tec

import (
	"math"
	"testing"
	"testing/quick"

	"tecfan/internal/floorplan"
)

// The package comment's device equations for Qc and Qh, and the classical
// ΔTmax, evaluated at cold/hot side temperatures in °C. The thermal model
// applies the same terms as a Peltier pump, Joule heat and a conductance;
// here they check that the device parameters make a working cooler.

func coldSideHeat(d Device, i, coldC, hotC float64) float64 {
	return d.Seebeck*i*(coldC+273.15) - 0.5*d.JouleHeat(i) - d.Conductance*(hotC-coldC)
}

func hotSideHeat(d Device, i, coldC, hotC float64) float64 {
	return d.Seebeck*i*(hotC+273.15) + 0.5*d.JouleHeat(i) - d.Conductance*(hotC-coldC)
}

// maxDeltaT is the largest steady ΔT the device sustains at current i with
// zero heat load: (S·I·Tc − ½I²R)/K.
func maxDeltaT(d Device, i, coldC float64) float64 {
	return (d.Seebeck*i*(coldC+273.15) - 0.5*d.JouleHeat(i)) / d.Conductance
}

func TestPowerMatchesEq9(t *testing.T) {
	d := DefaultDevice()
	// Eq. (9): P = r·I² + α·I·Δθ.
	i, dTheta := DriveCurrent, 5.0
	want := d.Resistance*i*i + d.Seebeck*i*dTheta
	if got := d.Power(i, dTheta); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Power = %v, want %v", got, want)
	}
}

func TestEnergyConservation(t *testing.T) {
	// Qh − Qc must equal the electrical input power for any temperatures.
	d := DefaultDevice()
	f := func(coldC, hotC float64) bool {
		coldC = 20 + math.Mod(math.Abs(coldC), 80)
		hotC = 20 + math.Mod(math.Abs(hotC), 80)
		qc := coldSideHeat(d, DriveCurrent, coldC, hotC)
		qh := hotSideHeat(d, DriveCurrent, coldC, hotC)
		p := d.Power(DriveCurrent, hotC-coldC)
		return math.Abs((qh-qc)-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColdSideHeatPositiveAtSmallDeltaT(t *testing.T) {
	d := DefaultDevice()
	// The device must actually cool (absorb heat) when both sides are at
	// similar temperature — otherwise it is useless as a cooler.
	if q := coldSideHeat(d, DriveCurrent, 80, 80); q <= 0 {
		t.Fatalf("Qc = %v at ΔT=0; device cannot cool", q)
	}
	// And pumping must defeat backflow up to a few kelvin of adverse ΔT.
	if q := coldSideHeat(d, DriveCurrent, 80, 83); q <= 0 {
		t.Fatalf("Qc = %v at ΔT=3 K; too weak", q)
	}
}

func TestMaxDeltaTPlausible(t *testing.T) {
	d := DefaultDevice()
	dt := maxDeltaT(d, DriveCurrent, 80)
	// Thin-film superlattice coolers manage single-digit to low-double-digit
	// ΔTmax at moderate current.
	if dt < 2 || dt > 20 {
		t.Fatalf("ΔTmax = %.2f K, outside the plausible 2–20 K band", dt)
	}
	// Consistency: at ΔT = ΔTmax the cold side absorbs ~zero heat.
	if q := coldSideHeat(d, DriveCurrent, 80, 80+dt); math.Abs(q) > 1e-9 {
		t.Fatalf("Qc at ΔTmax = %v, want 0", q)
	}
}

func TestHigherCurrentPumpsMore(t *testing.T) {
	d := DefaultDevice()
	q4 := coldSideHeat(d, 4, 80, 80)
	q6 := coldSideHeat(d, 6, 80, 80)
	if q6 <= q4 {
		t.Fatalf("Qc(6A)=%v should exceed Qc(4A)=%v in this regime", q6, q4)
	}
	if DriveCurrent > d.MaxCurrent {
		t.Fatal("drive current exceeds the safe maximum")
	}
}

func TestArrayGeometry(t *testing.T) {
	chip := floorplan.NewSCC16()
	arr := Array(chip, DefaultDevice())
	if len(arr) != 16*DevicesPerCore {
		t.Fatalf("array size = %d, want %d", len(arr), 16*DevicesPerCore)
	}
	for _, p := range arr {
		// Every device must land fully inside its core tile.
		col := p.Core % chip.TileCols
		row := p.Core / chip.TileCols
		ox := float64(col) * floorplan.TileW
		oy := float64(row) * floorplan.TileH
		if p.X < ox-1e-9 || p.Y < oy-1e-9 ||
			p.X+p.Device.Width > ox+floorplan.TileW+1e-9 ||
			p.Y+p.Device.Height > oy+floorplan.TileH+1e-9 {
			t.Fatalf("device %d/%d escapes tile", p.Core, p.Index)
		}
		// Cover fractions sum to 1 (device fully over die) and cover only
		// the owning core.
		var sum float64
		for ci, f := range p.Cover {
			if chip.Components[ci].Core != p.Core {
				t.Fatalf("device %d/%d covers foreign core", p.Core, p.Index)
			}
			if f <= 0 || f > 1+1e-9 {
				t.Fatalf("bad cover fraction %v", f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("cover fractions sum to %v, want 1", sum)
		}
	}
}

func TestArrayCoversHotComponents(t *testing.T) {
	chip := floorplan.NewSCC16()
	arr := Array(chip, DefaultDevice())
	// The FPMul of core 0 (the archetypal hot spot) must be under at least
	// one device.
	fpmul := chip.Lookup(0, "FPMul")
	covered := false
	for _, p := range arr {
		if p.Core == 0 && p.Cover[fpmul] > 0 {
			covered = true
		}
	}
	if !covered {
		t.Fatal("FPMul is not covered by any TEC")
	}
}

func TestStateSwitchingAndEngagement(t *testing.T) {
	chip := floorplan.NewQuad()
	st := NewState(Array(chip, DefaultDevice()))
	if st.Len() != 4*DevicesPerCore {
		t.Fatalf("Len = %d", st.Len())
	}
	st.Advance(1.0)
	st.Set(3, true)
	if st.Current(3) == 0 {
		t.Fatal("device 3 should be on")
	}
	if st.Engaged(3) {
		t.Fatal("device 3 cannot be engaged before the 20 µs delay")
	}
	st.Advance(1.0 + 25e-6)
	if !st.Engaged(3) {
		t.Fatal("device 3 should be engaged after the delay")
	}
	// Re-setting an already-on device must not restart the clock.
	st.Set(3, true)
	if !st.Engaged(3) {
		t.Fatal("re-set restarted the engagement clock")
	}
	st.Set(3, false)
	if st.Current(3) > 0 || st.Engaged(3) {
		t.Fatal("device 3 should be fully off")
	}
	if st.CountOn() != 0 {
		t.Fatalf("CountOn = %d", st.CountOn())
	}
}

func TestStateMaskRoundTrip(t *testing.T) {
	chip := floorplan.NewQuad()
	st := NewState(Array(chip, DefaultDevice()))
	mask := make([]bool, st.Len())
	mask[0], mask[7], mask[20] = true, true, true
	st.SetMask(mask)
	if st.CountOn() != 3 {
		t.Fatalf("CountOn = %d, want 3", st.CountOn())
	}
	got := st.OnMaskInto(nil)
	for i := range mask {
		if got[i] != mask[i] {
			t.Fatalf("mask mismatch at %d", i)
		}
	}
	// The mask must be a copy, not a view.
	got[0] = false
	if st.Current(0) == 0 {
		t.Fatal("OnMaskInto leaked internal state")
	}
}

func TestStateMaskLengthPanics(t *testing.T) {
	st := NewState(Array(floorplan.NewQuad(), DefaultDevice()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.SetMask(make([]bool, 3))
}

func TestCoreDevices(t *testing.T) {
	st := NewState(Array(floorplan.NewQuad(), DefaultDevice()))
	for core := 0; core < 4; core++ {
		devs := st.CoreDevices(core)
		if len(devs) != DevicesPerCore {
			t.Fatalf("core %d has %d devices", core, len(devs))
		}
		for _, l := range devs {
			if st.Placement(l).Core != core {
				t.Fatal("CoreDevices returned foreign device")
			}
		}
	}
}

func TestClone(t *testing.T) {
	st := NewState(Array(floorplan.NewQuad(), DefaultDevice()))
	st.Advance(5)
	st.Set(1, true)
	c := st.Clone()
	c.Set(2, true)
	if st.Current(2) > 0 {
		t.Fatal("clone mutated original")
	}
	if c.Current(1) == 0 || c.Now() != 5 {
		t.Fatal("clone lost state")
	}
}

func TestSetCurrentGraded(t *testing.T) {
	st := NewState(Array(floorplan.NewQuad(), DefaultDevice()))
	st.Advance(0.5)
	st.SetCurrent(2, 4)
	if st.Current(2) != 4 {
		t.Fatalf("current = %v, want 4", st.Current(2))
	}
	if st.Engaged(2) {
		t.Fatal("engaged before the delay")
	}
	st.Advance(0.5 + 25e-6)
	if !st.Engaged(2) {
		t.Fatal("not engaged after the delay")
	}
	// Changing between positive currents must not restart the clock.
	st.SetCurrent(2, 6)
	if !st.Engaged(2) {
		t.Fatal("current change restarted the engagement clock")
	}
	// Off and back on restarts it.
	st.SetCurrent(2, 0)
	st.SetCurrent(2, 2)
	if st.Engaged(2) {
		t.Fatal("re-energized device engaged instantly")
	}
	cur := st.Currents()
	if cur[2] != 2 {
		t.Fatalf("Currents()[2] = %v", cur[2])
	}
	cur[2] = 99
	if st.Current(2) == 99 {
		t.Fatal("Currents leaked internal state")
	}
}

func TestSetCurrentRejectsUnsafe(t *testing.T) {
	st := NewState(Array(floorplan.NewQuad(), DefaultDevice()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic above MaxCurrent (the >8 A hazard of [10])")
		}
	}()
	st.SetCurrent(0, 9)
}

func TestSetCurrentRejectsNegative(t *testing.T) {
	st := NewState(Array(floorplan.NewQuad(), DefaultDevice()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative current")
		}
	}()
	st.SetCurrent(0, -1)
}

func TestUniformArrayGeometry(t *testing.T) {
	chip := floorplan.NewQuad()
	arr := UniformArray(chip, DefaultDevice())
	if len(arr) != 4*DevicesPerCore {
		t.Fatalf("uniform array size %d", len(arr))
	}
	for _, p := range arr {
		var sum float64
		for ci, f := range p.Cover {
			if chip.Components[ci].Core != p.Core {
				t.Fatal("uniform device covers foreign core")
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("uniform device cover sums to %v", sum)
		}
	}
	// The two placements must differ (rows shifted).
	al := Array(chip, DefaultDevice())
	same := true
	for i := range arr {
		if arr[i].Y != al[i].Y {
			same = false
			break
		}
	}
	if same {
		t.Fatal("uniform and aligned placements identical")
	}
}
