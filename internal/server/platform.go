// Package server implements the paper's §IV-B/§V-E comparison setup: a
// 4-core Core-i7-3770K-class CMP serving a Wikipedia-derived HTTP workload.
// Power follows the utilization model of Horvath & Skadron [34]
// (P = Pidle + (Pbusy − Pidle)·u per core, with the DVFS-dependent parts
// scaled by Eq. (7)); throughput capacity is a quadratic polynomial of
// frequency fitted after the SPECjbb results of [36]. The thermal substrate
// reuses the layered RC network over the quad floorplan, with per-core TEC
// banks (all nine devices of a core switching together) so the exhaustive
// OFTEC and Oracle searches stay tractable — the paper's own 4-core scale
// implies the same granularity (2^{NL} with NL = 36 is infeasible for
// anyone).
package server

import (
	"fmt"
	"math"

	"tecfan/internal/power"
)

// Platform holds the per-core power/performance model.
type Platform struct {
	DVFS *power.DVFSTable
	// Per-core power parameters at the maximum DVFS level (W).
	StaticPower  float64 // temperature-independent floor per core
	IdleDynPower float64 // dynamic power at u=0 (clocks, snoop)
	BusyDynPower float64 // additional dynamic power at u=1
	// Quadratic capacity fit: cap(f) ∝ PerfA·(f/fmax)² + PerfB·(f/fmax),
	// normalized so cap(fmax) = 1. Diminishing returns (PerfA < 0) reflect
	// the memory-bound tail of the SPECjbb fit.
	PerfA, PerfB float64
	// UncorePower is the chip-level constant (memory controller, PLLs), W.
	UncorePower float64
}

// I7Platform returns the calibrated Core-i7-3770K-class platform.
func I7Platform() *Platform {
	return &Platform{
		DVFS:         power.I7Table(),
		StaticPower:  2.0,
		IdleDynPower: 2.5,
		BusyDynPower: 14.0,
		PerfA:        -0.4,
		PerfB:        1.4,
		UncorePower:  6.0,
	}
}

// Capacity returns the normalized throughput capacity at a DVFS level:
// 1.0 at the top level, sublinear below it.
func (p *Platform) Capacity(level int) float64 {
	fmax := p.DVFS.Levels[p.DVFS.Max()].Freq
	x := p.DVFS.Levels[level].Freq / fmax
	norm := p.PerfA + p.PerfB // value at x = 1
	return (p.PerfA*x*x + p.PerfB*x) / norm
}

// CorePower returns one core's power at a DVFS level and *achieved*
// utilization u ∈ [0,1] (fraction of that level's capacity in use).
func (p *Platform) CorePower(level int, u float64) float64 {
	if u < 0 || u > 1+1e-9 {
		panic(fmt.Sprintf("server: utilization %v out of range", u))
	}
	s := p.DVFS.ScaleFromMax(level)
	idle := p.StaticPower + p.IdleDynPower*s
	busy := p.StaticPower + (p.IdleDynPower+p.BusyDynPower)*s
	return idle + (busy-idle)*u
}

// ServeStep advances one core's work queue by dt seconds: demand is the
// arriving work (in max-capacity seconds), backlog the queued work. It
// returns the work served and the new backlog.
func (p *Platform) ServeStep(level int, demand, backlog, dt float64) (served, newBacklog float64) {
	capWork := p.Capacity(level) * dt
	pending := backlog + demand
	served = math.Min(pending, capWork)
	return served, pending - served
}
