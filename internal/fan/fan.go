// Package fan models the speed-adjustable cooling fan of the TECfan package
// (§IV-C): a datasheet of discrete speed levels patterned on the Dynatron R16
// processor fan [19], each with a rotation speed, an air-flow rate, and an
// electrical power. Fan power grows cubically with speed, which is why the
// paper's level-1/level-2 gap is 14.4 W vs 3.8 W; air flow translates into a
// convective conductance at the heat sink via a forced-convection power law.
package fan

import (
	"fmt"
	"math"
)

// Level is one datasheet row.
type Level struct {
	RPM   float64 // rotational speed
	CFM   float64 // air flow, cubic feet per minute
	Power float64 // electrical power, W
}

// Model is an adjustable-speed fan with a discrete level table. Level 0 is
// the fastest ("1st speed level" in the paper); higher indices are slower.
type Model struct {
	Levels []Level
	// ConvRef is the sink-to-ambient convective conductance (W/K) at the
	// reference air flow CFMRef. Conductance scales as (CFM/CFMRef)^0.8,
	// the classic turbulent forced-convection exponent.
	ConvRef float64
	CFMRef  float64
	// SinkCapacity is the heat-sink thermal capacitance (J/K). The paper
	// cites "hundreds of Joule per Kelvin", giving the 15–30 s sink time
	// constant that motivates the hierarchical controller.
	SinkCapacity float64
}

// DynatronR16 returns the fan model used in the paper's experiments. The
// level-1 and level-2 powers (14.4 W, 3.8 W) are the paper's figures; the
// remaining rows follow the cubic law down the speed range.
func DynatronR16() *Model {
	return &Model{
		Levels: []Level{
			{RPM: 8000, CFM: 50.0, Power: 14.40},
			{RPM: 5150, CFM: 42.0, Power: 3.80},
			{RPM: 4400, CFM: 28.0, Power: 2.08},
			{RPM: 3400, CFM: 21.5, Power: 0.92},
			{RPM: 2400, CFM: 15.0, Power: 0.30},
		},
		ConvRef:      8.6, // W/K at 50 CFM; calibrated to Table I
		CFMRef:       50.0,
		SinkCapacity: 160, // J/K → τ ≈ 19–30 s over the level range
	}
}

// NumLevels returns the number of speed levels.
func (m *Model) NumLevels() int { return len(m.Levels) }

// Power returns the fan's electrical power at the given level.
func (m *Model) Power(level int) float64 {
	m.check(level)
	return m.Levels[level].Power
}

// Conductance returns the sink-to-ambient convective conductance (W/K) at
// the given level.
func (m *Model) Conductance(level int) float64 {
	m.check(level)
	return m.ConvRef * math.Pow(m.Levels[level].CFM/m.CFMRef, 0.8)
}

// check panics on an out-of-range level; controllers clamp before calling.
func (m *Model) check(level int) {
	if level < 0 || level >= len(m.Levels) {
		panic(fmt.Sprintf("fan: level %d out of range [0,%d)", level, len(m.Levels)))
	}
}

// Clamp returns level limited to the valid range.
func (m *Model) Clamp(level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(m.Levels) {
		return len(m.Levels) - 1
	}
	return level
}
