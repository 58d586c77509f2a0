// Package tec models the thin-film thermoelectric cooler devices of the
// TECfan system (§III, §IV-C): 0.5 mm × 0.5 mm superlattice films after Long
// & Memik [10], nine per core in a 3×3 array embedded in the thermal
// interface material, each switched on/off by a power transistor at a fixed
// 6 A drive current (8 A being flagged unsafe in [10]).
//
// The electro-thermal behaviour follows the standard Peltier equations. With
// Seebeck coefficient S, electrical resistance R, through-plane thermal
// conductance K, drive current I, cold-side absolute temperature Tc and
// hot-side Th:
//
//	Qc = S·I·Tc − ½I²R − K(Th−Tc)   heat absorbed at the die side
//	Qh = S·I·Th + ½I²R − K(Th−Tc)   heat released at the spreader side
//	P  = Qh − Qc = I²R + S·I·(Th−Tc)
//
// which is exactly the paper's Eq. (9) with r = R and α = S. The Peltier
// terms are linear in temperature, so the thermal package can fold an active
// device into its (then mildly non-symmetric) conductance system.
package tec

import (
	"fmt"
	"math"

	"tecfan/internal/floorplan"
)

// Device holds the physical parameters of one thin-film TEC.
type Device struct {
	Seebeck     float64 // S, V/K (effective module value)
	Resistance  float64 // R, Ω
	Conductance float64 // K, W/K through-plane (always present, on or off)
	Width       float64 // mm
	Height      float64 // mm
	MaxCurrent  float64 // A; drive above this is rejected
	EngageDelay float64 // s; Peltier effect engagement latency (≈20 µs [9])
}

// DefaultDevice returns the device used throughout the paper's experiments,
// calibrated so that a fully-active 3×3 array cools a hot core tile by a few
// degrees — the magnitude Fig. 4(b) exhibits (fan level 2 + TECs ≈ fan
// level 1).
func DefaultDevice() Device {
	return Device{
		Seebeck:     5.0e-4, // V/K → pumps S·I·T ≈ 1.05 W/device at 6 A
		Resistance:  0.0025, // Ω → I²R = 90 mW at 6 A
		Conductance: 0.055,  // W/K (0.25 mm², ~8 µm film) → ΔTmax ≈ 18 K
		Width:       0.5,    // mm
		Height:      0.5,    // mm
		MaxCurrent:  8,      // A, overheating danger threshold [10]
		EngageDelay: 20e-6,  // s
	}
}

// DriveCurrent is the fixed on-state current (A). The paper conservatively
// drives at 6 A.
const DriveCurrent = 6.0

// JouleHeat returns the resistive dissipation I²R (W) at current i.
func (d Device) JouleHeat(i float64) float64 { return i * i * d.Resistance }

// PumpCoefficient returns S·I (W/K of absolute cold-side temperature): the
// coefficient of the linear Peltier extraction term.
func (d Device) PumpCoefficient(i float64) float64 { return d.Seebeck * i }

// Power returns the electrical power (Eq. 9): r·I² + α·I·Δθ, where dTheta is
// the hot-minus-cold temperature difference in kelvin.
func (d Device) Power(i, dTheta float64) float64 {
	return d.JouleHeat(i) + d.Seebeck*i*dTheta
}

// ArrayDim is the paper's per-core TEC array: 3×3 devices.
const ArrayDim = 3

// DevicesPerCore is L per core (9).
const DevicesPerCore = ArrayDim * ArrayDim

// Placement positions one device over a core tile and precomputes which die
// components it covers (by area overlap), so the thermal model can apportion
// the Peltier extraction.
type Placement struct {
	Core   int
	Index  int     // 0..8 within the 3×3 array
	X, Y   float64 // top-left, chip coordinates, mm
	Device Device
	// Cover maps global component indices to the fraction of the DEVICE
	// area overlapping that component; fractions sum to ≤ 1.
	Cover map[int]float64
	// CoverList is Cover as a component-ordered slice. Numeric code must
	// accumulate over this list, never over the map: Go randomizes map
	// iteration order, and floating-point sums taken in varying order drift
	// in the last ulp, which breaks bitwise-reproducible (and hence
	// checkpoint/resumable) simulation.
	CoverList []CoverEntry
}

// CoverEntry is one (component, overlap fraction) pair of a placement.
type CoverEntry struct {
	Comp int
	Frac float64
}

// Array builds the 3×3 placements for every core of a chip. Following the
// placement-optimization result of Long & Memik [10] (the paper's TEC
// reference), the three device rows are aligned with the floorplan's
// highest-power-density rows rather than spaced uniformly: row 0 sits on
// the FP multiplier (the archetypal hot spot), row 1 on the FPAdd/ITB row,
// and row 2 on the L1 caches. Columns span the 1.8 mm logic width.
func Array(chip *floorplan.Chip, dev Device) []Placement {
	out := make([]Placement, 0, chip.NumCores()*DevicesPerCore)
	// Tile-local device centres (mm).
	colX := [ArrayDim]float64{0.30, 0.90, 1.50}
	rowY := [ArrayDim]float64{0.675, 1.575, 2.475}
	for core := 0; core < chip.NumCores(); core++ {
		tileCol := core % chip.TileCols
		tileRow := core / chip.TileCols
		ox := float64(tileCol) * floorplan.TileW
		oy := float64(tileRow) * floorplan.TileH
		for m := 0; m < ArrayDim; m++ {
			for k := 0; k < ArrayDim; k++ {
				p := Placement{
					Core:   core,
					Index:  m*ArrayDim + k,
					X:      ox + colX[k] - dev.Width/2,
					Y:      oy + rowY[m] - dev.Height/2,
					Device: dev,
					Cover:  map[int]float64{},
				}
				p.computeCover(chip)
				out = append(out, p)
			}
		}
	}
	return out
}

// UniformArray builds the naive alternative placement: a 3×3 grid spaced
// uniformly over the logic region (x ∈ [0, 1.8], y ∈ [0, 2.75] tile-local)
// instead of aligned with the hot floorplan rows. Used by the placement
// ablation to quantify what [10]-style placement optimization buys.
func UniformArray(chip *floorplan.Chip, dev Device) []Placement {
	out := make([]Placement, 0, chip.NumCores()*DevicesPerCore)
	const (
		regionW = 1.8
		regionH = 2.75
	)
	for core := 0; core < chip.NumCores(); core++ {
		tileCol := core % chip.TileCols
		tileRow := core / chip.TileCols
		ox := float64(tileCol) * floorplan.TileW
		oy := float64(tileRow) * floorplan.TileH
		for m := 0; m < ArrayDim; m++ {
			for k := 0; k < ArrayDim; k++ {
				cx := regionW * (2*float64(k) + 1) / (2 * ArrayDim)
				cy := regionH * (2*float64(m) + 1) / (2 * ArrayDim)
				p := Placement{
					Core:   core,
					Index:  m*ArrayDim + k,
					X:      ox + cx - dev.Width/2,
					Y:      oy + cy - dev.Height/2,
					Device: dev,
					Cover:  map[int]float64{},
				}
				p.computeCover(chip)
				out = append(out, p)
			}
		}
	}
	return out
}

// computeCover fills p.Cover with the per-component overlap fractions and
// mirrors them into the component-ordered CoverList. Only the device's own
// core's components are scanned, in ascending index order, so no extra
// sort is needed.
func (p *Placement) computeCover(chip *floorplan.Chip) {
	devArea := p.Device.Width * p.Device.Height
	for _, i := range chip.CoreComponents(p.Core) {
		c := chip.Components[i]
		ox := math.Min(p.X+p.Device.Width, c.X+c.W) - math.Max(p.X, c.X)
		oy := math.Min(p.Y+p.Device.Height, c.Y+c.H) - math.Max(p.Y, c.Y)
		if ox > 0 && oy > 0 {
			p.Cover[i] = ox * oy / devArea
			p.CoverList = append(p.CoverList, CoverEntry{Comp: i, Frac: ox * oy / devArea})
		}
	}
}

// State tracks the drive state and engagement timing of every TEC on the
// chip. The paper's main design switches devices on/off at the fixed 6 A
// via power transistors; the variable-current alternative it discusses
// (per-device current control through a dedicated on-chip VR, §III) is
// supported through SetCurrent, enabling the current-control ablation.
// Turning a device on starts the 20 µs Peltier engagement clock; the device
// consumes electrical power immediately but pumps heat only once engaged
// (a conservative model, per §IV-C).
type State struct {
	placements []Placement
	current    []float64 // drive current per device, A; 0 = off
	engageAt   []float64 // simulation time at which pumping becomes active
	now        float64
}

// NewState creates an all-off state over the given placements.
func NewState(placements []Placement) *State {
	return &State{
		placements: placements,
		current:    make([]float64, len(placements)),
		engageAt:   make([]float64, len(placements)),
	}
}

// Len returns the number of devices.
func (s *State) Len() int { return len(s.placements) }

// Placement returns device l's placement.
func (s *State) Placement(l int) Placement { return s.placements[l] }

// Advance moves the engagement clock to simulation time t (seconds).
func (s *State) Advance(t float64) { s.now = t }

// Now returns the current simulation time.
func (s *State) Now() float64 { return s.now }

// Set switches device l on (at the fixed DriveCurrent) or off. Switching on
// records the engagement deadline; switching off is immediate (heat pumping
// stops with the current).
func (s *State) Set(l int, on bool) {
	if on {
		s.SetCurrent(l, DriveCurrent)
	} else {
		s.SetCurrent(l, 0)
	}
}

// SetCurrent drives device l at the given current (A), the variable-current
// extension. Currents above the device's safe maximum are rejected with a
// panic — the paper flags >8 A as an overheating hazard [10]. Moving from
// off to any positive current restarts the engagement clock; changing
// between positive currents does not.
func (s *State) SetCurrent(l int, amps float64) {
	if amps < 0 || amps > s.placements[l].Device.MaxCurrent {
		panic(fmt.Sprintf("tec: current %.1f A outside [0, %.1f]", amps, s.placements[l].Device.MaxCurrent))
	}
	if amps > 0 && s.current[l] == 0 {
		s.engageAt[l] = s.now + s.placements[l].Device.EngageDelay
	}
	s.current[l] = amps
}

// Reset returns every device to off with a cleared engagement clock — the
// reuse hook that lets a per-candidate evaluation loop keep one State alive
// instead of allocating a fresh one per estimate.
func (s *State) Reset() {
	for i := range s.current {
		s.current[i] = 0
		s.engageAt[i] = 0
	}
	s.now = 0
}

// Current returns device l's drive current (A), 0 when off.
func (s *State) Current(l int) float64 { return s.current[l] }

// Engaged reports whether device l is actively pumping heat (on and past its
// engagement delay).
func (s *State) Engaged(l int) bool {
	return s.current[l] > 0 && s.now >= s.engageAt[l]
}

// CountOn returns the number of powered devices.
func (s *State) CountOn() int {
	n := 0
	for _, v := range s.current {
		if v > 0 {
			n++
		}
	}
	return n
}

// CoreDevices returns the indices of the devices on a core.
func (s *State) CoreDevices(core int) []int {
	var out []int
	for l, p := range s.placements {
		if p.Core == core {
			out = append(out, l)
		}
	}
	return out
}

// OnMaskInto writes the on/off vector into dst, growing it only when dst is
// too small, and returns the filled slice.
func (s *State) OnMaskInto(dst []bool) []bool {
	if cap(dst) < len(s.current) {
		dst = make([]bool, len(s.current))
	}
	dst = dst[:len(s.current)]
	for i, v := range s.current {
		dst[i] = v > 0
	}
	return dst
}

// SetMask applies a full on/off vector (used by exhaustive-search policies).
func (s *State) SetMask(mask []bool) {
	if len(mask) != len(s.current) {
		panic(fmt.Sprintf("tec: mask length %d, want %d", len(mask), len(s.current)))
	}
	for l, v := range mask {
		s.Set(l, v)
	}
}

// Currents returns a copy of the per-device current vector.
func (s *State) Currents() []float64 {
	return append([]float64(nil), s.current...)
}

// CurrentsInto writes the per-device current vector into dst, growing it
// only when dst is too small, and returns the filled slice.
func (s *State) CurrentsInto(dst []float64) []float64 {
	if cap(dst) < len(s.current) {
		dst = make([]float64, len(s.current))
	}
	dst = dst[:len(s.current)]
	copy(dst, s.current)
	return dst
}

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	return &State{
		placements: s.placements,
		current:    append([]float64(nil), s.current...),
		engageAt:   append([]float64(nil), s.engageAt...),
		now:        s.now,
	}
}

// StateSnapshot is the serializable drive state of a TEC array: per-device
// currents, engagement deadlines, and the engagement clock. It captures
// everything NewState + replayed commands would reconstruct, so a restored
// run continues bitwise-identically.
type StateSnapshot struct {
	Current  []float64
	EngageAt []float64
	Now      float64
}

// Snapshot exports the mutable state for checkpointing.
func (s *State) Snapshot() StateSnapshot {
	return StateSnapshot{
		Current:  append([]float64(nil), s.current...),
		EngageAt: append([]float64(nil), s.engageAt...),
		Now:      s.now,
	}
}

// RestoreSnapshot loads a previously exported state. The snapshot must match
// the placement count the state was built over.
func (s *State) RestoreSnapshot(snap StateSnapshot) error {
	if len(snap.Current) != len(s.placements) || len(snap.EngageAt) != len(s.placements) {
		return fmt.Errorf("tec: snapshot for %d/%d devices, state has %d",
			len(snap.Current), len(snap.EngageAt), len(s.placements))
	}
	copy(s.current, snap.Current)
	copy(s.engageAt, snap.EngageAt)
	s.now = snap.Now
	return nil
}
