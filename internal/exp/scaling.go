package exp

import (
	"fmt"
	"io"
	"math"
	"time"

	"tecfan/internal/core"
	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/power"
	"tecfan/internal/sim"
	"tecfan/internal/tec"
	"tecfan/internal/thermal"
)

// Many-core scaling study: the paper's introduction argues that exhaustive
// cooling optimization "does not scale with the number of cores", making
// online management impossible "especially for future CMPs with many
// cores", and prices TECfan at O(NL + N²M) against O(M^N·2^{NL}) for the
// Oracle. This experiment measures one TECfan control period on growing
// tile grids and reports the evaluation count and wall time next to the
// (astronomically growing) size of the exhaustive search space.

// ScalingRow is one chip size's measured controller cost.
type ScalingRow struct {
	Cores       int
	TECs        int
	Evaluations int           // model evaluations in one hot control period
	Elapsed     time.Duration // wall time of that period
	// Log10OracleSpace is log10(M^N · 2^{N·L}), the exhaustive search
	// space the paper's complexity analysis assigns to Oracle.
	Log10OracleSpace float64
}

// ControllerScaling measures a worst-case (hot, all knobs engaged) control
// period for square tile grids of the given dimensions (e.g. 1, 2, 4, 6 →
// 1, 4, 16, 36 cores). The clock is injected by the caller (the facade
// passes time.Now): wall time is this experiment's measurand, but reading
// the wall clock directly here would break the exp package's determinism
// invariant — with a nil clock every Elapsed is zero and the remaining
// columns are reproducible.
func ControllerScaling(now func() time.Time, grids []int) ([]ScalingRow, error) {
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	var rows []ScalingRow
	for _, g := range grids {
		chip := floorplan.NewChip(g, g)
		fm := fan.DynatronR16()
		nw := thermal.NewNetwork(chip, fm, thermal.DefaultParams())
		table := power.SCCTable()
		leak := power.DefaultLeakage()
		placements := tec.Array(chip, tec.DefaultDevice())
		est := core.NewEstimator(nw, table, leak, fm, placements, 2e-3)
		ctl := core.NewController(est)

		// A hot observation: every core busy, concentrated spots, threshold
		// pinned well below the operating point so the hot iteration walks
		// TECs and then DVFS — the bounded worst case of §V-A's complexity
		// discussion.
		nCores := chip.NumCores()
		dyn := hotPower(chip, 6.5)
		temps, err := nw.Steady(dyn, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("scaling %d cores: %w", nCores, err)
		}
		ips := make([]float64, nCores)
		dvfs := make([]int, nCores)
		for i := range ips {
			ips[i] = 1e9
			dvfs[i] = table.Max()
		}
		_, peak := nw.PeakDie(temps)
		obs := &sim.Observation{
			Temps:     temps,
			DynPower:  dyn,
			CoreIPS:   ips,
			DVFS:      dvfs,
			TECOn:     make([]bool, len(placements)),
			FanLevel:  1,
			Threshold: peak - 10,
		}
		start := now()
		ctl.Control(obs)
		elapsed := now().Sub(start)

		// log10(M^N · 2^{N·L}): N·log10(M) + N·L·log10(2).
		n := float64(nCores)
		l := float64(tec.DevicesPerCore)
		m := float64(table.Num())
		rows = append(rows, ScalingRow{
			Cores:            nCores,
			TECs:             len(placements),
			Evaluations:      est.Evaluations,
			Elapsed:          elapsed,
			Log10OracleSpace: n*math.Log10(m) + n*l*math.Log10(2),
		})
	}
	return rows, nil
}

// WriteScaling renders the study.
func WriteScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintln(w, "controller scaling: one worst-case control period vs core count")
	fmt.Fprintf(w, "%6s %6s %12s %12s %22s\n", "cores", "TECs", "evals", "wall time", "log10(Oracle space)")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %6d %12d %12v %22.0f\n",
			r.Cores, r.TECs, r.Evaluations, r.Elapsed.Round(time.Microsecond), r.Log10OracleSpace)
	}
}
