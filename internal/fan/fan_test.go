package fan

import (
	"math"
	"testing"
)

func TestDynatronLevels(t *testing.T) {
	m := DynatronR16()
	if m.NumLevels() != 5 {
		t.Fatalf("NumLevels = %d, want 5", m.NumLevels())
	}
	// Paper figures: level 1 (index 0) = 14.4 W, level 2 (index 1) = 3.8 W.
	if m.Power(0) != 14.4 {
		t.Fatalf("level-1 power = %v, want 14.4", m.Power(0))
	}
	if m.Power(1) != 3.8 {
		t.Fatalf("level-2 power = %v, want 3.8", m.Power(1))
	}
}

func TestLevelsMonotone(t *testing.T) {
	m := DynatronR16()
	for l := 1; l < m.NumLevels(); l++ {
		if m.Levels[l].RPM >= m.Levels[l-1].RPM {
			t.Fatalf("RPM not decreasing at level %d", l)
		}
		if m.Levels[l].CFM >= m.Levels[l-1].CFM {
			t.Fatalf("CFM not decreasing at level %d", l)
		}
		if m.Power(l) >= m.Power(l-1) {
			t.Fatalf("power not decreasing at level %d", l)
		}
		if m.Conductance(l) >= m.Conductance(l-1) {
			t.Fatalf("conductance not decreasing at level %d", l)
		}
	}
}

func TestConductanceReference(t *testing.T) {
	m := DynatronR16()
	// At the reference CFM the conductance equals ConvRef.
	if got := m.Conductance(0); math.Abs(got-m.ConvRef) > 1e-9 {
		t.Fatalf("Conductance(0) = %v, want %v", got, m.ConvRef)
	}
	// Power-law check at level 1.
	want := m.ConvRef * math.Pow(m.Levels[1].CFM/m.CFMRef, 0.8)
	if got := m.Conductance(1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Conductance(1) = %v, want %v", got, want)
	}
}

func TestTimeConstantInPaperRange(t *testing.T) {
	m := DynatronR16()
	// The paper cites a heat-sink thermal constant of 15–30 s [4]. Our
	// level range should straddle that band.
	for l := 0; l < m.NumLevels(); l++ {
		tc := m.SinkCapacity / m.Conductance(l)
		if tc < 10 || tc > 80 {
			t.Fatalf("level %d time constant %.1f s outside plausible range", l, tc)
		}
	}
	if tc := m.SinkCapacity / m.Conductance(0); tc > 30 {
		t.Fatalf("fastest-fan time constant %.1f s, want ≤ 30 s", tc)
	}
}

func TestCubicFit(t *testing.T) {
	m := DynatronR16()
	// Least-squares fit of P = c·RPM³ over the levels.
	var num, den float64
	for _, l := range m.Levels {
		r3 := l.RPM * l.RPM * l.RPM
		num += l.Power * r3
		den += r3 * r3
	}
	c := num / den
	var maxRel float64
	for _, l := range m.Levels {
		maxRel = math.Max(maxRel, math.Abs(c*l.RPM*l.RPM*l.RPM-l.Power)/l.Power)
	}
	if c <= 0 {
		t.Fatalf("cubic coefficient %v", c)
	}
	// The datasheet should follow the cubic law within ~35 % at every level
	// (real fans deviate at the extremes; the paper only needs the trend).
	if maxRel > 0.35 {
		t.Fatalf("max relative deviation from cubic law = %.2f", maxRel)
	}
	// Level-1:level-2 power ratio should be close to the RPM ratio cubed.
	rpmRatio := m.Levels[0].RPM / m.Levels[1].RPM
	powRatio := m.Power(0) / m.Power(1)
	if math.Abs(powRatio-math.Pow(rpmRatio, 3))/powRatio > 0.3 {
		t.Fatalf("power ratio %.2f vs cubic RPM ratio %.2f", powRatio, math.Pow(rpmRatio, 3))
	}
}

func TestClamp(t *testing.T) {
	m := DynatronR16()
	if m.Clamp(-3) != 0 {
		t.Fatal("Clamp(-3) != 0")
	}
	if m.Clamp(99) != m.NumLevels()-1 {
		t.Fatal("Clamp(99) != last level")
	}
	if m.Clamp(2) != 2 {
		t.Fatal("Clamp(2) != 2")
	}
}

func TestPowerPanicsOutOfRange(t *testing.T) {
	m := DynatronR16()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Power(5)
}
