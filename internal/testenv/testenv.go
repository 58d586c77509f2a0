// Package testenv provides shared fixtures for tests across the TECfan
// packages: prebuilt quad/SCC16 environments (chip, fan, thermal network,
// DVFS table, leakage, TEC array) and small synthetic benchmarks that finish
// in a few simulated milliseconds.
package testenv

import (
	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/power"
	"tecfan/internal/sim"
	"tecfan/internal/tec"
	"tecfan/internal/thermal"
	"tecfan/internal/workload"
)

// Env bundles one chip's model stack.
type Env struct {
	Chip *floorplan.Chip
	Fan  *fan.Model
	NW   *thermal.Network
	DVFS *power.DVFSTable
	Leak power.Leakage
	TECs []tec.Placement
}

// NewQuad builds a 4-core environment.
func NewQuad() *Env {
	chip := floorplan.NewQuad()
	fm := fan.DynatronR16()
	return &Env{
		Chip: chip,
		Fan:  fm,
		NW:   thermal.NewNetwork(chip, fm, thermal.DefaultParams()),
		DVFS: power.SCCTable(),
		Leak: power.DefaultLeakage(),
		TECs: tec.Array(chip, tec.DefaultDevice()),
	}
}

// NewSCC16 builds the full 16-core environment.
func NewSCC16() *Env {
	chip := floorplan.NewSCC16()
	fm := fan.DynatronR16()
	return &Env{
		Chip: chip,
		Fan:  fm,
		NW:   thermal.NewNetwork(chip, fm, thermal.DefaultParams()),
		DVFS: power.SCCTable(),
		Leak: power.DefaultLeakage(),
		TECs: tec.Array(chip, tec.DefaultDevice()),
	}
}

// MiniBench returns a short uniform benchmark running on the first nActive
// cores with the given per-core dynamic power and duration (ms of work at
// max DVFS).
func MiniBench(nActive int, coreDyn, durMS float64) *workload.Benchmark {
	active := make([]int, nActive)
	for i := range active {
		active[i] = i
	}
	return &workload.Benchmark{
		Name:         "mini",
		Threads:      nActive,
		TotalInst:    float64(nActive) * 1e9 * durMS / 1000,
		ActiveCores:  active,
		Weights:      workload.WeightsFromDensity(workload.DensityMults{Logic: 1, Array: 1, Wire: 1, VR: 1}),
		CoreDyn:      coreDyn,
		IdleDyn:      0.3,
		BaseIPS:      1e9,
		Phases:       []workload.Phase{{Frac: 1, Activity: 1}},
		TargetTimeMS: durMS,
	}
}

// HotBench is MiniBench with power concentrated in the execution logic,
// producing strong local hot spots (lu-like).
func HotBench(nActive int, coreDyn, durMS float64) *workload.Benchmark {
	b := MiniBench(nActive, coreDyn, durMS)
	b.Weights = workload.WeightsFromDensity(workload.DensityMults{
		Logic: 1.5, Array: 0.7, Wire: 0.8, VR: 0.45,
		Overrides: map[string]float64{"FPMul": 7.0, "IntExec": 5.0},
	})
	return b
}

// Config returns a sim.Config over the environment with fast test timing.
func (e *Env) Config(b *workload.Benchmark, threshold float64) sim.Config {
	return sim.Config{
		Chip: e.Chip, Fan: e.Fan, Network: e.NW, DVFS: e.DVFS, Leak: e.Leak,
		TECs: e.TECs, Bench: b, Threshold: threshold,
		FanLevel: 1, Step: 100e-6, ControlPeriod: 500e-6,
	}
}

// BasePeak returns the steady-state peak die temperature of the benchmark's
// base scenario (max DVFS, given fan level, TECs off) — the per-workload
// threshold rule of §IV.
func (e *Env) BasePeak(b *workload.Benchmark, fanLevel int) (float64, error) {
	p := make([]float64, len(e.Chip.Components))
	pm := b.PowerMap(e.Chip)
	for core := 0; core < e.Chip.NumCores(); core++ {
		pm.AddDynPower(core, 0.5, 1.0, p)
	}
	leak := make([]float64, len(e.Chip.Components))
	temps := make([]float64, e.NW.NumNodes())
	for i := range temps {
		temps[i] = 70
	}
	// Two leakage refinement passes.
	for pass := 0; pass < 2; pass++ {
		e.Leak.PerComponent(e.Chip, temps, power.ModelQuad, leak)
		total := make([]float64, len(p))
		for i := range p {
			total[i] = p[i] + leak[i]
		}
		t, err := e.NW.Steady(total, fanLevel, nil)
		if err != nil {
			return 0, err
		}
		temps = t
	}
	_, peak := e.NW.PeakDie(temps)
	return peak, nil
}
