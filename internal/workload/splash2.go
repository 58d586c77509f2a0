package workload

import (
	"fmt"

	"tecfan/internal/floorplan"
	"tecfan/internal/power"
)

// DensityMults assigns a power-density multiplier per floorplan kind, with
// per-component overrides; WeightsFromDensity turns them into a normalized
// weight map. Density multipliers express a benchmark's spatial signature
// directly: a multiplier of 1 means chip-average dynamic power density.
type DensityMults struct {
	Logic, Array, Wire, VR float64
	Overrides              map[string]float64
}

// WeightsFromDensity converts density multipliers into per-component weight
// fractions over the canonical tile: w_i ∝ areaFrac_i · mult_i, normalized
// to sum to 1.
func WeightsFromDensity(m DensityMults) map[string]float64 {
	tile := floorplan.TileComponents()
	tileArea := floorplan.TileW * floorplan.TileH
	w := make(map[string]float64, len(tile))
	var sum float64
	for _, c := range tile {
		mult, ok := m.Overrides[c.Name]
		if !ok {
			switch c.Kind {
			case floorplan.KindLogic:
				mult = m.Logic
			case floorplan.KindArray:
				mult = m.Array
			case floorplan.KindWire:
				mult = m.Wire
			case floorplan.KindVR:
				mult = m.VR
			}
		}
		v := c.Area() / tileArea * mult
		w[c.Name] = v
		sum += v
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

// benchSpec is the raw per-benchmark definition before calibration.
type benchSpec struct {
	name, input  string
	ffInst       float64
	threads      int
	totalInst    float64
	targetTimeMS float64
	targetPower  float64
	targetPeak   float64
	mults        DensityMults
	phases       []Phase
	jitter       float64
	seed         uint64
}

// Table I rows (§IV, Table I). The density multipliers are the calibrated
// spatial signatures: cholesky and lu concentrate power in small integer/FP
// execution blocks (strong local hot spots), fmm and water are moderately
// FP-concentrated, volrend is nearly uniform high power — the property that
// drives the Fig. 5(a) orderings.
var specs = []benchSpec{
	{
		name: "cholesky", input: "tk29.0", ffInst: 200e6, threads: 16,
		totalInst: 1e9, targetTimeMS: 48.0, targetPower: 125.9, targetPeak: 90.07,
		mults: DensityMults{Logic: 1.8, Array: 0.7, Wire: 0.9, VR: 0.45,
			Overrides: map[string]float64{"FPMul": 4.3, "IntExec": 3.0, "LdStQ": 2.7, "DCache": 2.0}},
		phases: []Phase{{0.25, 0.90, 0.03, 2}, {0.50, 1.10, 0.035, 3}, {0.25, 0.90, 0.03, 2}},
		jitter: 0.03, seed: 0xC01E5C,
	},
	{
		name: "cholesky", input: "tk29.0", ffInst: 200e6, threads: 4,
		totalInst: 250e6, targetTimeMS: 57.2, targetPower: 42.0, targetPeak: 74.8,
		mults: DensityMults{Logic: 1.8, Array: 0.7, Wire: 0.9, VR: 0.45,
			Overrides: map[string]float64{"FPMul": 4.3, "IntExec": 3.0, "LdStQ": 2.7, "DCache": 2.0}},
		phases: []Phase{{0.25, 0.90, 0.03, 2}, {0.50, 1.10, 0.035, 3}, {0.25, 0.90, 0.03, 2}},
		jitter: 0.03, seed: 0xC01E54,
	},
	{
		name: "fmm", input: "fmm.in", ffInst: 300e6, threads: 16,
		totalInst: 1e9, targetTimeMS: 59.68, targetPower: 74.9, targetPeak: 69.69,
		mults: DensityMults{Logic: 1.6, Array: 0.75, Wire: 0.8, VR: 0.5,
			Overrides: map[string]float64{"FPMul": 3.2, "FPAdd": 2.5, "FPReg": 2.0}},
		phases: []Phase{{0.5, 1.06, 0.03, 4}, {0.5, 0.94, 0.03, 4}},
		jitter: 0.03, seed: 0xF003,
	},
	{
		name: "fmm", input: "fmm.in", ffInst: 300e6, threads: 4,
		totalInst: 250e6, targetTimeMS: 72.66, targetPower: 32.5, targetPeak: 62.15,
		mults: DensityMults{Logic: 1.6, Array: 0.75, Wire: 0.8, VR: 0.5,
			Overrides: map[string]float64{"FPMul": 3.2, "FPAdd": 2.5, "FPReg": 2.0}},
		phases: []Phase{{0.5, 1.06, 0.03, 4}, {0.5, 0.94, 0.03, 4}},
		jitter: 0.03, seed: 0xF004,
	},
	{
		name: "volrend", input: "head", ffInst: 300e6, threads: 16,
		totalInst: 800e6, targetTimeMS: 41.42, targetPower: 85.4, targetPeak: 71.79,
		mults:  DensityMults{Logic: 2.2, Array: 0.9, Wire: 1.0, VR: 0.5},
		phases: []Phase{{1.0, 1.0, 0.04, 6}},
		jitter: 0.03, seed: 0x701E,
	},
	{
		name: "water", input: "water.in", ffInst: 300e6, threads: 4,
		totalInst: 250e6, targetTimeMS: 38.1, targetPower: 43.7, targetPeak: 68.7,
		mults: DensityMults{Logic: 1.6, Array: 0.8, Wire: 0.8, VR: 0.5,
			Overrides: map[string]float64{"FPMul": 2.0, "FPAdd": 1.9}},
		phases: []Phase{{0.4, 0.95, 0.025, 3}, {0.6, 1.0 + 1.0/30, 0.025, 3}},
		jitter: 0.025, seed: 0x3A7E4,
	},
	{
		name: "lu", input: "no input", ffInst: 300e6, threads: 16,
		totalInst: 400e6, targetTimeMS: 20.34, targetPower: 109.9, targetPeak: 84.49,
		mults: DensityMults{Logic: 1.5, Array: 0.7, Wire: 0.8, VR: 0.45,
			Overrides: map[string]float64{"FPMul": 4.5, "FPAdd": 2.5, "FPReg": 2.2}},
		phases: []Phase{{0.3, 1.10, 0.035, 3}, {0.4, 1.00, 0.035, 3}, {0.3, 0.90, 0.035, 3}},
		jitter: 0.03, seed: 0x1116,
	},
	{
		name: "lu", input: "no input", ffInst: 300e6, threads: 4,
		totalInst: 100e6, targetTimeMS: 19.6, targetPower: 42.1, targetPeak: 70.75,
		mults: DensityMults{Logic: 1.5, Array: 0.7, Wire: 0.8, VR: 0.45,
			Overrides: map[string]float64{"FPMul": 4.5, "FPAdd": 2.5, "FPReg": 2.2}},
		phases: []Phase{{0.3, 1.10, 0.035, 3}, {0.4, 1.00, 0.035, 3}, {0.3, 0.90, 0.035, 3}},
		jitter: 0.03, seed: 0x1114,
	},
}

// IdleCoreDyn is the dynamic power of a core with no thread pinned (clock
// tree, snoop, mesh background), W at max DVFS.
const IdleCoreDyn = 0.5

// build converts a spec into a calibrated Benchmark.
func build(s benchSpec, leak power.Leakage) *Benchmark {
	b := &Benchmark{
		Name:         s.name,
		Input:        s.input,
		FFInst:       s.ffInst,
		Threads:      s.threads,
		TotalInst:    s.totalInst,
		Weights:      WeightsFromDensity(s.mults),
		IdleDyn:      IdleCoreDyn,
		JitterAmp:    s.jitter,
		Phases:       s.phases,
		Seed:         s.seed,
		TargetPower:  s.targetPower,
		TargetPeak:   s.targetPeak,
		TargetTimeMS: s.targetTimeMS,
	}
	if s.threads == 16 {
		b.ActiveCores = allCores()
	} else {
		b.ActiveCores = append([]int(nil), centerCores...)
	}
	if len(b.ActiveCores) != s.threads {
		panic(fmt.Sprintf("workload %s: %d active cores for %d threads", s.name, len(b.ActiveCores), s.threads))
	}
	b.BaseIPS = b.InstPerCore() / (s.targetTimeMS / 1000)
	calibrateCoreDyn(b, leak)
	return b
}

// Table1 returns the eight Table I benchmark configurations, calibrated
// against the given leakage model.
func Table1(leak power.Leakage) []*Benchmark {
	out := make([]*Benchmark, len(specs))
	for i, s := range specs {
		out[i] = build(s, leak)
	}
	return out
}

// ByName returns the benchmark with the given name and thread count.
func ByName(name string, threads int, leak power.Leakage) (*Benchmark, error) {
	for _, s := range specs {
		if s.name == name && s.threads == threads {
			return build(s, leak), nil
		}
	}
	return nil, fmt.Errorf("workload: no benchmark %q with %d threads", name, threads)
}

// Fig56Benchmarks returns the four 16-thread benchmarks used in the
// Fig. 5 / Fig. 6 policy comparisons (cholesky, fmm, volrend, lu).
func Fig56Benchmarks(leak power.Leakage) []*Benchmark {
	var out []*Benchmark
	for _, s := range specs {
		if s.threads == 16 {
			out = append(out, build(s, leak))
		}
	}
	return out
}
