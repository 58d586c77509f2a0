package exp

import (
	"context"
	"fmt"
	"io"

	"tecfan/internal/policy"
	"tecfan/internal/workload"
)

// Fig4Case is one benchmark's comparison of Fan-only at fan levels 1 and 2
// against Fan+TEC at level 2 (§V-B): time series of peak temperature plus
// the cooling-power breakdown of Fig. 4(c).
type Fig4Case struct {
	Bench     string
	Threads   int
	Threshold float64 // T_th = base-scenario peak (Table I)

	// Peak-temperature series sampled per control period.
	FanOnlyL1 []float64
	FanOnlyL2 []float64
	FanTECL2  []float64

	// Violations (fraction of samples above T_th).
	ViolL1, ViolL2, ViolTEC float64

	// Fig. 4(c): cooling power.
	FanPowerL1  float64
	FanPowerL2  float64
	TECPowerAvg float64 // average TEC electrical power of the Fan+TEC run
}

// Key identifies the case across resumed sweeps: its benchmark and threads.
func (c Fig4Case) Key() [2]any { return [2]any{c.Bench, c.Threads} }

// Fig4Opt reproduces §V-B over the selected Table I benchmarks (all by
// default). On error — including cancellation — the cases completed so far
// return alongside it.
func (e *Env) Fig4Opt(ctx context.Context, opt RowOptions[Fig4Case]) ([]Fig4Case, error) {
	return sweepRows(ctx, e, opt, e.fig4One)
}

// fig4One runs the four-simulation comparison for one benchmark.
func (e *Env) fig4One(ctx context.Context, b *workload.Benchmark) (Fig4Case, error) {
	sb := e.Scaled(b)
	// First pass at level 1 establishes T_th = measured base peak.
	pre, err := e.BaseScenarioContext(ctx, sb)
	if err != nil {
		return Fig4Case{}, fmt.Errorf("fig4 %s pre: %w", b.Name, err)
	}
	th := pre.Metrics.PeakTemp

	l1, err := e.runOne(ctx, sb, policy.FanOnly{}, th, 0, recordTrace)
	if err != nil {
		return Fig4Case{}, fmt.Errorf("fig4 %s L1: %w", b.Name, err)
	}
	l2, err := e.runOne(ctx, sb, policy.FanOnly{}, th, 1, recordTrace)
	if err != nil {
		return Fig4Case{}, fmt.Errorf("fig4 %s L2: %w", b.Name, err)
	}
	ft, err := e.runOne(ctx, sb, &policy.FanTEC{Placements: e.TECs}, th, 1, recordTrace)
	if err != nil {
		return Fig4Case{}, fmt.Errorf("fig4 %s Fan+TEC: %w", b.Name, err)
	}

	c := Fig4Case{
		Bench: b.Name, Threads: b.Threads, Threshold: th,
		ViolL1:     l1.Metrics.ViolationRatio,
		ViolL2:     l2.Metrics.ViolationRatio,
		ViolTEC:    ft.Metrics.ViolationRatio,
		FanPowerL1: e.Fan.Power(0),
		FanPowerL2: e.Fan.Power(1),
	}
	for _, p := range l1.Trace {
		c.FanOnlyL1 = append(c.FanOnlyL1, p.PeakTemp)
	}
	for _, p := range l2.Trace {
		c.FanOnlyL2 = append(c.FanOnlyL2, p.PeakTemp)
	}
	var tecP float64
	for _, p := range ft.Trace {
		c.FanTECL2 = append(c.FanTECL2, p.PeakTemp)
		tecP += float64(p.TECsOn)
	}
	if len(ft.Trace) > 0 {
		// Average TEC electrical power ≈ mean devices-on × per-device
		// power; exact energy accounting lives in the run metrics, this
		// is the Fig. 4(c) bar.
		perDevice := e.TECs[0].Device.JouleHeat(6)
		c.TECPowerAvg = tecP / float64(len(ft.Trace)) * perDevice
	}
	return c, nil
}

// WriteFig4 renders the three panels as text.
func WriteFig4(w io.Writer, cases []Fig4Case) {
	fmt.Fprintln(w, "Fig.4(a,b): peak temperature vs threshold (violation ratios)")
	fmt.Fprintf(w, "%-10s %3s %8s | %-12s %-12s %-12s\n",
		"bench", "thr", "T_th", "FanOnly@L1", "FanOnly@L2", "Fan+TEC@L2")
	for _, c := range cases {
		fmt.Fprintf(w, "%-10s %3d %8.2f | viol=%-6.3f  viol=%-6.3f  viol=%-6.3f\n",
			c.Bench, c.Threads, c.Threshold, c.ViolL1, c.ViolL2, c.ViolTEC)
	}
	fmt.Fprintln(w, "\nFig.4(c): cooling power")
	fmt.Fprintf(w, "%-10s %3s %12s %12s %14s\n", "bench", "thr", "fan@L1 (W)", "fan@L2 (W)", "TEC avg (W)")
	for _, c := range cases {
		fmt.Fprintf(w, "%-10s %3d %12.1f %12.1f %14.2f\n",
			c.Bench, c.Threads, c.FanPowerL1, c.FanPowerL2, c.TECPowerAvg)
	}
}
