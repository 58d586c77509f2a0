// Package workload generates the synthetic SPLASH-2 benchmark traces that
// stand in for SESC+Wattch runs (§IV-B). Each benchmark is a deterministic
// per-core activity process over *retired instructions* — slowing a core via
// DVFS stretches the same work over more wall-clock time, which is exactly
// what the delay metric of Fig. 6(a) measures.
//
// A benchmark fixes
//
//   - which cores are active (16-thread runs use all cores; 4-thread runs
//     pin to the four centre tiles, where spreading is worst — the local
//     hot-spot scenario the paper's 4-thread rows exhibit),
//   - a per-component dynamic-power weight map (the spatial signature: lu
//     concentrates power in the FP multiplier, volrend spreads it almost
//     uniformly — the property behind the Fig. 5(a) Fan+TEC/Fan+DVFS
//     crossover),
//   - a phase schedule plus deterministic jitter (the temporal signature),
//   - calibrated totals that reproduce the paper's Table I base-scenario
//     power, execution time, and peak temperature.
//
// All values are defined at the maximum DVFS level; package power scales
// them to other operating points via Eq. (7).
package workload

import (
	"fmt"
	"math"

	"tecfan/internal/floorplan"
	"tecfan/internal/power"
	"tecfan/internal/splitmix"
)

// Phase is one segment of a benchmark's activity schedule. Frac is the
// fraction of the instruction budget spent in the phase; Activity is the
// mean power-activity multiplier; Wobble adds a sinusoid (in progress space)
// of the given amplitude and cycle count.
type Phase struct {
	Frac     float64
	Activity float64
	Wobble   float64
	Cycles   float64
}

// Benchmark is one workload configuration (a Table I row).
type Benchmark struct {
	Name    string
	Input   string  // SPLASH-2 input file (Table I metadata)
	FFInst  float64 // fast-forward instructions before measurement
	Threads int

	TotalInst   float64 // instructions across all threads
	ActiveCores []int
	// Weights maps component name → share of active-core dynamic power.
	Weights map[string]float64
	// CoreDyn is dynamic W per active core at max DVFS and activity 1.
	CoreDyn float64
	// IdleDyn is dynamic W per inactive core (clock tree, mesh idle).
	IdleDyn float64
	// BaseIPS is per-active-core instructions/second at max DVFS.
	BaseIPS float64
	// JitterAmp is the relative amplitude of the deterministic per-bucket
	// noise applied to activity (power) samples.
	JitterAmp float64
	Phases    []Phase
	Seed      uint64
	// Profiles optionally overrides parameters per core (multiprogrammed
	// mixes built by Merge).
	Profiles map[int]*CoreProfile

	// Table I calibration targets (base scenario: max DVFS, fan level 1,
	// TECs off). TargetPower/TargetPeak/TargetTime are what our harness
	// compares against in EXPERIMENTS.md.
	TargetPower  float64 // W
	TargetPeak   float64 // °C
	TargetTimeMS float64 // ms
}

// InstPerCore returns the instruction budget of each active core.
func (b *Benchmark) InstPerCore() float64 {
	return b.TotalInst / float64(len(b.ActiveCores))
}

// IsActive reports whether a core runs a thread of this benchmark.
func (b *Benchmark) IsActive(core int) bool {
	for _, c := range b.ActiveCores {
		if c == core {
			return true
		}
	}
	return false
}

// jitterBuckets discretizes progress for deterministic noise lookup.
const jitterBuckets = 4096

// jitterWith returns a deterministic multiplier in [1−amp, 1+amp] for a
// core at a progress bucket under the given seed.
func (b *Benchmark) jitterWith(seed uint64, core int, progress, amp float64) float64 {
	if amp == 0 {
		return 1
	}
	bucket := uint64(progress * jitterBuckets)
	h := splitmix.Mix(seed ^ splitmix.Mix(uint64(core)*2654435761+bucket))
	u := float64(h>>11) / float64(1<<53) // [0,1)
	return 1 + amp*(2*u-1)
}

// Activity returns the power-activity multiplier of a core at the given
// progress fraction of its instruction budget (clamped to [0,1]).
func (b *Benchmark) Activity(core int, progress float64) float64 {
	if progress < 0 {
		progress = 0
	}
	if progress > 1 {
		progress = 1
	}
	phases, jitterAmp, seed := b.phasesFor(core)
	var acc float64
	for _, ph := range phases {
		if progress <= acc+ph.Frac || ph.Frac == 0 {
			local := 0.0
			if ph.Frac > 0 {
				local = (progress - acc) / ph.Frac
			}
			a := ph.Activity
			if ph.Wobble > 0 {
				a += ph.Wobble * math.Sin(2*math.Pi*ph.Cycles*local+float64(core))
			}
			a *= b.jitterWith(seed, core, progress, jitterAmp)
			if a < 0 {
				a = 0
			}
			return a
		}
		acc += ph.Frac
	}
	// Past the final phase boundary (progress == 1 exactly).
	last := phases[len(phases)-1]
	return last.Activity * b.jitterWith(seed, core, 1, jitterAmp)
}

// IPS returns the core's instruction rate at max DVFS at the given progress.
// Rate tracks activity mildly (memory-bound dips) with mean ≈ BaseIPS.
func (b *Benchmark) IPS(core int, progress float64) float64 {
	a := b.Activity(core, progress)
	_, _, baseIPS := b.profileFor(core)
	return baseIPS * (0.85 + 0.15*a)
}

// PowerMap is a benchmark's dynamic-power map resolved against one chip:
// each core's activity state, calibrated power and component weights,
// laid out in CoreComponents order, so evaluating a step looks no name up.
// It reflects the benchmark as it was when built, and it is read-only, so
// concurrent runs may share one.
type PowerMap struct {
	b       *Benchmark
	chip    *floorplan.Chip
	active  []bool
	coreDyn []float64
	weights [][]float64 // per core, in CoreComponents order; an unweighted name is 0
}

// PowerMap resolves the benchmark's per-core power parameters for chip.
func (b *Benchmark) PowerMap(chip *floorplan.Chip) *PowerMap {
	n := chip.NumCores()
	m := &PowerMap{
		b: b, chip: chip,
		active:  make([]bool, n),
		coreDyn: make([]float64, n),
		weights: make([][]float64, n),
	}
	for core := 0; core < n; core++ {
		m.active[core] = b.IsActive(core)
		weights, coreDyn, _ := b.profileFor(core)
		m.coreDyn[core] = coreDyn
		comps := chip.CoreComponents(core)
		w := make([]float64, len(comps))
		for k, i := range comps {
			w[k] = weights[chip.Components[i].Name]
		}
		m.weights[core] = w
	}
	return m
}

// AddDynPower accumulates the benchmark's dynamic power map for one core at
// the given progress into out (indexed by global component index), scaled by
// the DVFS factor scale (1 = max level). Idle cores draw IdleDyn spread
// uniformly by area (clock and mesh background), unaffected by progress.
func (m *PowerMap) AddDynPower(core int, progress, scale float64, out []float64) {
	b, chip := m.b, m.chip
	comps := chip.CoreComponents(core)
	if !m.active[core] {
		tileArea := floorplan.TileW * floorplan.TileH
		for _, i := range comps {
			out[i] += b.IdleDyn * scale * chip.Components[i].Area() / tileArea
		}
		return
	}
	a := b.Activity(core, progress)
	coreDyn, w := m.coreDyn[core], m.weights[core]
	for k, i := range comps {
		out[i] += coreDyn * a * w[k] * scale
	}
}

// centerCores are the four centre tiles of the 4×4 grid used by 4-thread
// runs; surrounded by idle silicon, they form the paper's local-hot-spot
// scenario.
var centerCores = []int{5, 6, 9, 10}

// allCores lists cores 0..15.
func allCores() []int {
	out := make([]int, 16)
	for i := range out {
		out[i] = i
	}
	return out
}

// calibrateCoreDyn solves CoreDyn so that the base-scenario chip power
// matches the Table I target: target = active·CoreDyn + idle·IdleDyn +
// leakage(assumed temps). Leakage is evaluated with the quadratic ground
// truth at an assumed average die temperature a few degrees under the target
// peak; the residual error is below one watt and reported in EXPERIMENTS.md.
func calibrateCoreDyn(b *Benchmark, leak power.Leakage) {
	avgT := b.TargetPeak - 9
	leakW := leak.QuadChip(avgT)
	idle := float64(16-len(b.ActiveCores)) * b.IdleDyn
	b.CoreDyn = (b.TargetPower - leakW - idle) / float64(len(b.ActiveCores))
	if b.CoreDyn <= 0 {
		panic(fmt.Sprintf("workload %s: non-positive calibrated CoreDyn", b.Name))
	}
}
