package exp

import (
	"context"
	"fmt"
	"io"

	"tecfan/internal/core"
	"tecfan/internal/floorplan"
	"tecfan/internal/perf"
	"tecfan/internal/sim"
	"tecfan/internal/tec"
	"tecfan/internal/workload"
)

// The ablation studies quantify the design choices DESIGN.md calls out:
// which of the three knobs earns TECfan's result (the paper's central
// coordination claim), what per-core DVFS buys over the chip-level DVFS the
// paper says TECfan tolerates (§III-E), what graded TEC current control
// would buy over on/off transistors (§III), how sensitive the heuristic is
// to its control period (§III-D picks 2 ms), and what the 6 A drive choice
// costs relative to other currents ([10] flags 8 A as dangerous).

// AblationRow is one controller variant's outcome on one benchmark.
type AblationRow struct {
	Variant   string
	Bench     string
	FanLevel  int
	Metrics   perf.Metrics
	Norm      perf.NormalizedMetrics
	Evals     int // model evaluations per run (complexity cost)
	Completed bool
}

// variantRow runs one TECfan variant with the §IV-C fan selection
// (minimum-energy feasible level, as for stock TECfan) against the base
// scenario base.
func (e *Env) variantRow(ctx context.Context, sb *workload.Benchmark, base perf.Metrics, name string, period float64, mod func(*core.Controller)) (AblationRow, error) {
	level, res, ctl, err := e.selectFanLevel(ctx, sb, base.PeakTemp, contender{
		build: func() (sim.Controller, error) {
			ctl := core.NewController(e.estimator(period))
			if mod != nil {
				mod(ctl)
			}
			return ctl, nil
		},
		period:      period,
		leastEnergy: true,
	})
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Variant:   name,
		Bench:     sb.Name,
		FanLevel:  level,
		Metrics:   res.Metrics,
		Norm:      res.Metrics.Normalize(base),
		Evals:     ctl.(*core.Controller).Est.Evaluations,
		Completed: res.Completed,
	}, nil
}

// ablationBase scales the 16-thread benchmark and runs its base scenario.
func (e *Env) ablationBase(ctx context.Context, benchName string) (*workload.Benchmark, perf.Metrics, error) {
	b, err := workload.ByName(benchName, 16, e.Leak)
	if err != nil {
		return nil, perf.Metrics{}, err
	}
	sb := e.Scaled(b)
	base, err := e.BaseScenarioContext(ctx, sb)
	if err != nil {
		return nil, perf.Metrics{}, err
	}
	return sb, base.Metrics, nil
}

// KnobAblation removes one knob at a time from TECfan on the given
// benchmark and reports the damage — the coordination claim, quantified.
func (e *Env) KnobAblation(ctx context.Context, benchName string) ([]AblationRow, error) {
	sb, base, err := e.ablationBase(ctx, benchName)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		mod  func(*core.Controller)
	}{
		{"TECfan (full)", nil},
		{"no TEC knob", func(c *core.Controller) { c.NoTEC = true }},
		{"no DVFS knob", func(c *core.Controller) { c.NoDVFS = true }},
		{"chip-level DVFS", func(c *core.Controller) { c.ChipLevelDVFS = true }},
		{"graded current", func(c *core.Controller) { c.CurrentLevels = core.DefaultCurrentLevels }},
	}
	var rows []AblationRow
	for _, v := range variants {
		row, err := e.variantRow(ctx, sb, base, v.name, 2e-3, v.mod)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PeriodAblation sweeps the lower-level control period around the paper's
// 2 ms choice.
func (e *Env) PeriodAblation(ctx context.Context, benchName string, periods []float64) ([]AblationRow, error) {
	sb, base, err := e.ablationBase(ctx, benchName)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, p := range periods {
		row, err := e.variantRow(ctx, sb, base, fmt.Sprintf("period %.0f ms", p*1000), p, nil)
		if err != nil {
			return nil, fmt.Errorf("period ablation %v: %w", p, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CurrentAblationRow reports one drive current's steady cooling effect and
// electrical cost with a full hot-core array engaged.
type CurrentAblationRow struct {
	Current  float64 // A
	PeakDrop float64 // °C relief of the hot core's peak
	TECPower float64 // W, Eq. (9)
}

// CurrentAblation sweeps the TEC drive current on a single-hot-core steady
// scenario, exposing the diminishing (and eventually reversing) return the
// paper cites when motivating the conservative 6 A choice: past the optimum,
// I²R Joule heating eats the Peltier gain.
func (e *Env) CurrentAblation(currents []float64) ([]CurrentAblationRow, error) {
	// One core hot (lu-style), rest idle.
	hot := e.Chip.NumCores() / 2
	p := hotPower(e.Chip, 6, hot)
	base, err := e.NW.Steady(p, 1, nil)
	if err != nil {
		return nil, err
	}
	_, basePeak := e.NW.CorePeak(base, hot)

	var rows []CurrentAblationRow
	for _, amps := range currents {
		ts := tec.NewState(e.TECs)
		for _, l := range ts.CoreDevices(hot) {
			ts.SetCurrent(l, amps)
		}
		ts.Advance(1)
		temps, err := e.NW.Steady(p, 1, ts)
		if err != nil {
			return nil, err
		}
		_, peak := e.NW.CorePeak(temps, hot)
		rows = append(rows, CurrentAblationRow{
			Current:  amps,
			PeakDrop: basePeak - peak,
			TECPower: e.NW.TECPower(temps, ts),
		})
	}
	return rows, nil
}

// PlacementAblation compares the hot-row-aligned TEC placement against a
// uniform 3×3 grid over the logic region ([10]'s placement question).
func (e *Env) PlacementAblation() (aligned, uniform float64, err error) {
	// Hot core scenario as in CurrentAblation.
	hot := e.Chip.NumCores() / 2
	p := hotPower(e.Chip, 6, hot)
	base, err := e.NW.Steady(p, 1, nil)
	if err != nil {
		return 0, 0, err
	}
	_, basePeak := e.NW.CorePeak(base, hot)

	relief := func(placements []tec.Placement) (float64, error) {
		ts := tec.NewState(placements)
		for _, l := range ts.CoreDevices(hot) {
			ts.Set(l, true)
		}
		ts.Advance(1)
		temps, err := e.NW.Steady(p, 1, ts)
		if err != nil {
			return 0, err
		}
		_, peak := e.NW.CorePeak(temps, hot)
		return basePeak - peak, nil
	}
	if aligned, err = relief(e.TECs); err != nil {
		return 0, 0, err
	}
	if uniform, err = relief(tec.UniformArray(e.Chip, tec.DefaultDevice())); err != nil {
		return 0, 0, err
	}
	return aligned, uniform, nil
}

// WriteAblation renders knob/period ablation rows.
func WriteAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-16s %4s %8s %8s %8s %8s %8s %9s\n",
		"variant", "fan", "delay", "power", "energy", "EDP", "viol%", "evals")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %4d %8.3f %8.3f %8.3f %8.3f %8.3f %9d\n",
			r.Variant, r.FanLevel+1, r.Norm.Delay, r.Norm.Power, r.Norm.Energy,
			r.Norm.EDP, 100*r.Metrics.ViolationRatio, r.Evals)
	}
}

// WriteCurrentAblation renders the drive-current sweep.
func WriteCurrentAblation(w io.Writer, rows []CurrentAblationRow) {
	fmt.Fprintln(w, "TEC drive-current sweep (hot core, 9 devices, steady state)")
	fmt.Fprintf(w, "%8s %12s %12s\n", "I (A)", "ΔT peak (°C)", "TEC P (W)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.1f %12.2f %12.2f\n", r.Current, r.PeakDrop, r.TECPower)
	}
}

// refArea is the component area (mm²) that draws k W in hotPower.
const refArea = 9.36

// hotPower is the synthetic power map of the steady-state studies: every
// component of the listed cores (all cores when none is listed) draws k W
// per refArea of its area, and each FPMul hot spot four times that.
func hotPower(chip *floorplan.Chip, k float64, cores ...int) []float64 {
	if len(cores) == 0 {
		for c := 0; c < chip.NumCores(); c++ {
			cores = append(cores, c)
		}
	}
	p := make([]float64, len(chip.Components))
	for _, core := range cores {
		for _, i := range chip.CoreComponents(core) {
			c := chip.Components[i]
			p[i] = k * c.Area() / refArea
			if c.Name == "FPMul" {
				p[i] *= 4
			}
		}
	}
	return p
}
