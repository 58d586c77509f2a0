// Package power implements the CMP power models of §III-B: per-core DVFS
// voltage/frequency levels with the Eq. (7) dynamic-power scaling law, the
// Eq. (6) linear-in-temperature leakage model used online by the controller,
// the second-order polynomial leakage model ([21], calibrated to the SCC
// measurements) used as simulation ground truth, and the Eq. (8) chip power
// aggregation over cores, TECs, and fan.
package power

import (
	"fmt"

	"tecfan/internal/floorplan"
)

// DVFSLevel is one voltage/frequency operating point.
type DVFSLevel struct {
	Freq float64 // GHz
	Vdd  float64 // V
}

// DVFSTable is the ordered set of per-core operating points, slowest first.
type DVFSTable struct {
	Levels []DVFSLevel
}

// SCCTable returns the 6-level table used for the 16-core SCC-like target
// (M = 6 in the paper's complexity analysis).
func SCCTable() *DVFSTable {
	return &DVFSTable{Levels: []DVFSLevel{
		{Freq: 1.0, Vdd: 0.75},
		{Freq: 1.2, Vdd: 0.80},
		{Freq: 1.4, Vdd: 0.85},
		{Freq: 1.6, Vdd: 0.92},
		{Freq: 1.8, Vdd: 1.00},
		{Freq: 2.0, Vdd: 1.10},
	}}
}

// I7Table returns the 4-core Core-i7-3770K-class table used in the §V-E
// comparison setup (nominal 3.5 GHz, turbo excluded, EIST-style points).
func I7Table() *DVFSTable {
	return &DVFSTable{Levels: []DVFSLevel{
		{Freq: 1.6, Vdd: 0.85},
		{Freq: 2.1, Vdd: 0.92},
		{Freq: 2.6, Vdd: 0.99},
		{Freq: 3.0, Vdd: 1.05},
		{Freq: 3.5, Vdd: 1.12},
	}}
}

// Num returns the number of levels.
func (t *DVFSTable) Num() int { return len(t.Levels) }

// Max returns the index of the highest-frequency level.
func (t *DVFSTable) Max() int { return len(t.Levels) - 1 }

// Clamp limits a level index to the valid range.
func (t *DVFSTable) Clamp(l int) int {
	if l < 0 {
		return 0
	}
	if l >= len(t.Levels) {
		return len(t.Levels) - 1
	}
	return l
}

// check panics on an out-of-range level.
func (t *DVFSTable) check(l int) {
	if l < 0 || l >= len(t.Levels) {
		panic(fmt.Sprintf("power: DVFS level %d out of range [0,%d)", l, len(t.Levels)))
	}
}

// DynScale returns the Eq. (7) dynamic-power multiplier for moving a core
// from level `from` to level `to`: (F_to/F_from)·(V_to/V_from)².
func (t *DVFSTable) DynScale(from, to int) float64 {
	t.check(from)
	t.check(to)
	f := t.Levels[to].Freq / t.Levels[from].Freq
	v := t.Levels[to].Vdd / t.Levels[from].Vdd
	return f * v * v
}

// FreqRatio returns F_to/F_from, the Eq. (11) IPS multiplier.
func (t *DVFSTable) FreqRatio(from, to int) float64 {
	t.check(from)
	t.check(to)
	return t.Levels[to].Freq / t.Levels[from].Freq
}

// ScaleFromMax returns the dynamic-power multiplier relative to the top
// level — the factor applied to trace power sampled at max DVFS.
func (t *DVFSTable) ScaleFromMax(level int) float64 { return t.DynScale(t.Max(), level) }

// Leakage models chip leakage power. The linear form is the controller's
// Eq. (6); the quadratic form is the ground-truth polynomial of [21], both
// calibrated to the same SCC measurement points. Per-component leakage is
// the chip total scaled by area fraction and evaluated at the component's
// own temperature, exactly as Eq. (6) prescribes.
type Leakage struct {
	// Quadratic ground truth: P(T) = C0 + C1·T + C2·T², T in °C.
	C0, C1, C2 float64
	// Linear online model: P(T) = TDPLeak + Alpha·(T − TTDP).
	TDPLeak float64 // W at TTDP
	Alpha   float64 // W/K
	TTDP    float64 // °C
}

// DefaultLeakage returns the SCC-calibrated model: 10 W at 45 °C, 16 W at
// 70 °C, 24 W at the 90 °C TDP point; the linear model is the tangent of the
// quadratic at TTDP.
func DefaultLeakage() Leakage {
	l := Leakage{
		C0: 10.4, C1: -0.168889, C2: 0.00355556,
		TTDP: 90,
	}
	l.TDPLeak = l.QuadChip(l.TTDP)
	l.Alpha = l.C1 + 2*l.C2*l.TTDP
	return l
}

// Scaled returns a copy of the model with every power coefficient
// multiplied by factor — e.g. chipArea/referenceArea when applying the
// SCC-calibrated totals to a smaller die.
func (l Leakage) Scaled(factor float64) Leakage {
	l.C0 *= factor
	l.C1 *= factor
	l.C2 *= factor
	l.TDPLeak *= factor
	l.Alpha *= factor
	return l
}

// QuadChip returns total chip leakage (W) at chip temperature tC using the
// quadratic ground-truth model. Clamped non-negative.
func (l Leakage) QuadChip(tC float64) float64 {
	p := l.C0 + l.C1*tC + l.C2*tC*tC
	if p < 0 {
		return 0
	}
	return p
}

// LinearChip returns total chip leakage (W) at tC using the Eq. (6) linear
// model. Clamped non-negative.
func (l Leakage) LinearChip(tC float64) float64 {
	p := l.TDPLeak + l.Alpha*(tC-l.TTDP)
	if p < 0 {
		return 0
	}
	return p
}

// Model selects the leakage evaluation used.
type Model int

const (
	ModelLinear Model = iota // controller side (Eq. 6)
	ModelQuad                // simulation ground truth ([21])
)

// PerComponent writes per-component leakage power into out (len =
// #components) given per-node temperatures (die nodes first). Each component
// contributes the chip-level curve scaled by its area fraction, evaluated at
// its own previous-interval temperature.
func (l Leakage) PerComponent(chip *floorplan.Chip, temps []float64, m Model, out []float64) {
	if len(out) != len(chip.Components) {
		panic(fmt.Sprintf("power: out length %d, want %d", len(out), len(chip.Components)))
	}
	area := chip.Area()
	for i, c := range chip.Components {
		var p float64
		switch m {
		case ModelLinear:
			p = l.LinearChip(temps[i])
		case ModelQuad:
			p = l.QuadChip(temps[i])
		default:
			panic(fmt.Sprintf("power: unknown leakage model %d", int(m)))
		}
		out[i] = p * c.Area() / area
	}
}
