package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"tecfan/internal/core"
	"tecfan/internal/floats"
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
// scenario base. The caller names the row.
func (e *Env) variantRow(ctx context.Context, sb *workload.Benchmark, base perf.Metrics, period float64, mod func(*core.Controller)) (AblationRow, error) {
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
		Bench:     sb.Name,
		FanLevel:  level,
		Metrics:   res.Metrics,
		Norm:      res.Metrics.Normalize(base),
		Evals:     ctl.(*core.Controller).Est.Evaluations,
		Completed: res.Completed,
	}, nil
}

// knobPeriod is the knob ablation's control period, the paper's 2 ms.
const knobPeriod = 2e-3

// knobVariants are the knob ablation's TECfan variants in row order: the
// full controller first, then one knob removed or refined at a time.
// reduced marks a variant with a knob removed, which searches fewer
// candidates per control period.
var knobVariants = []struct {
	name    string
	mod     func(*core.Controller)
	reduced bool
}{
	{"TECfan (full)", nil, false},
	{"no TEC knob", func(c *core.Controller) { c.NoTEC = true }, true},
	{"no DVFS knob", func(c *core.Controller) { c.NoDVFS = true }, true},
	{"chip-level DVFS", func(c *core.Controller) { c.ChipLevelDVFS = true }, true},
	{"graded current", func(c *core.Controller) { c.CurrentLevels = core.DefaultCurrentLevels }, false},
}

// Ablations runs the knob ablation — one knob removed from TECfan at a
// time, the coordination claim quantified — and the sweep of the
// lower-level control period around the paper's 2 ms on one 16-thread
// benchmark, as one plan. The base scenario runs once, then each distinct
// §IV-C selection runs once on the worker set: the full controller at
// 2 ms serves both the "TECfan (full)" row and a "period 2 ms" row. The
// knob rows come back in knobVariants order and the period rows in the
// order of periods; neither depends on Workers.
func (e *Env) Ablations(ctx context.Context, benchName string, periods []float64) (knob, period []AblationRow, err error) {
	b, err := workload.ByName(benchName, 16, e.Leak)
	if err != nil {
		return nil, nil, err
	}
	sb := e.Scaled(b)
	baseRun, err := e.BaseScenarioContext(ctx, sb)
	if err != nil {
		return nil, nil, err
	}
	base := baseRun.Metrics
	type selection struct {
		label   string
		period  float64
		mod     func(*core.Controller)
		reduced bool
	}
	var plan []selection
	for _, v := range knobVariants {
		plan = append(plan, selection{"ablation " + v.name, knobPeriod, v.mod, v.reduced})
	}
	plain := map[float64]int{knobPeriod: 0} // period -> plan index of the stock controller
	periodSel := make([]int, len(periods))
	for i, p := range periods {
		j, ok := plain[p]
		if !ok {
			j = len(plan)
			plain[p] = j
			plan = append(plan, selection{fmt.Sprintf("period ablation %v", p), p, nil, false})
		}
		periodSel[i] = j
	}

	// Longest first, so the last selection to start is a short one: a
	// shorter period runs more control periods, and a reduced variant
	// searches fewer candidates in each.
	order := make([]int, len(plan))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := plan[order[a]], plan[order[b]]
		if !floats.Same(x.period, y.period) {
			return x.period < y.period
		}
		return !x.reduced && y.reduced
	})
	rows := make([]AblationRow, len(plan))
	err = inOrder(ctx, e.Workers, len(order), func(ctx context.Context, k int) (AblationRow, error) {
		s := plan[order[k]]
		row, err := e.variantRow(ctx, sb, base, s.period, s.mod)
		if err != nil {
			return AblationRow{}, fmt.Errorf("%s: %w", s.label, err)
		}
		return row, nil
	}, func(k int, row AblationRow) { rows[order[k]] = row })
	if err != nil {
		return nil, nil, err
	}

	for i, v := range knobVariants {
		r := rows[i]
		r.Variant = v.name
		knob = append(knob, r)
	}
	for i, p := range periods {
		r := rows[periodSel[i]]
		r.Variant = fmt.Sprintf("period %.0f ms", p*1000)
		period = append(period, r)
	}
	return knob, period, nil
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
