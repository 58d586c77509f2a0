package exp

import (
	"context"
	"fmt"
	"io"
	"slices"

	"tecfan/internal/perf"
	"tecfan/internal/sim"
	"tecfan/internal/workload"
)

// Heterogeneous-mix study: half the chip runs a hot-spot-dominated
// application (lu), the other half a spatially uniform one (volrend). This
// is the asymmetry the paper's local-cooling argument lives on — a global
// fan must serve the hottest half while TECs can treat it locally. The
// study reports where TECfan spends its TEC duty and what the coordination
// earns against the Fan-only base.
type MixResult struct {
	Bench     string
	Threshold float64
	FanLevel  int
	Metrics   perf.Metrics
	Norm      perf.NormalizedMetrics
	// TEC duty split: fraction of device-on time spent over each half.
	DutyHotSide  float64 // lu side
	DutyCoolSide float64 // volrend side
}

// MixStudy builds the lu+volrend half-chip mix and runs TECfan on it.
func (e *Env) MixStudy(ctx context.Context) (*MixResult, error) {
	lu, err := workload.ByName("lu", 16, e.Leak)
	if err != nil {
		return nil, err
	}
	vol, err := workload.ByName("volrend", 16, e.Leak)
	if err != nil {
		return nil, err
	}
	hotSide := []int{0, 1, 2, 3, 4, 5, 6, 7}
	coolSide := []int{8, 9, 10, 11, 12, 13, 14, 15}
	mixed, err := workload.Merge(lu, vol, hotSide, coolSide)
	if err != nil {
		return nil, err
	}
	sb := e.Scaled(mixed)
	base, err := e.BaseScenarioContext(ctx, sb)
	if err != nil {
		return nil, err
	}
	run, err := e.RunCell(ctx, sb, "TECfan", base)
	if err != nil {
		return nil, err
	}
	// Rerun TECfan at the chosen level with tracing so the per-side TEC
	// duty can be split.
	ctl, err := e.Controller("TECfan")
	if err != nil {
		return nil, err
	}
	traced, err := e.RunTracedContext(ctx, sb, ctl, run.Threshold, run.FanLevel)
	if err != nil {
		return nil, err
	}
	hotDuty, coolDuty := e.tecDutySplit(traced, hotSide)

	return &MixResult{
		Bench:        mixed.Name,
		Threshold:    run.Threshold,
		FanLevel:     run.FanLevel,
		Metrics:      run.Metrics,
		Norm:         run.Norm,
		DutyHotSide:  hotDuty,
		DutyCoolSide: coolDuty,
	}, nil
}

// tecDutySplit estimates per-side TEC duty from a run trace. TracePoint
// carries only the total device count, so each period's devices are
// attributed to the side that holds that period's peak component. The
// proxy is coarse, but the assertion it serves is a large hot/cool
// imbalance, not a precise ratio.
func (e *Env) tecDutySplit(res *sim.Result, hotSide []int) (hot, cool float64) {
	for _, p := range res.Trace {
		if slices.Contains(hotSide, e.Chip.CoreOf(p.PeakComp)) {
			hot += float64(p.TECsOn)
		} else {
			cool += float64(p.TECsOn)
		}
	}
	total := hot + cool
	if total == 0 {
		return 0, 0
	}
	return hot / total, cool / total
}

// WriteMixStudy renders the study.
func WriteMixStudy(w io.Writer, r *MixResult) {
	fmt.Fprintf(w, "heterogeneous mix (%s): T_th %.2f °C, fan level %d\n",
		r.Bench, r.Threshold, r.FanLevel+1)
	fmt.Fprintf(w, "normalized: delay %.3f  power %.3f  energy %.3f  EDP %.3f\n",
		r.Norm.Delay, r.Norm.Power, r.Norm.Energy, r.Norm.EDP)
	fmt.Fprintf(w, "TEC activity attribution: %.0f%% hot (lu) side, %.0f%% uniform (volrend) side\n",
		100*r.DutyHotSide, 100*r.DutyCoolSide)
}
