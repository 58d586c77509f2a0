package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"
)

// Report runs every reproduction experiment and emits a self-contained
// markdown document comparing measured values against the paper's reported
// numbers, with per-table/figure verdicts — the machine-generated
// counterpart of EXPERIMENTS.md. The paper's values are embedded here
// (Table I exactly; figure-level claims as the bands the text states).
type ReportOptions struct {
	// TraceSeconds is the §V-E per-core trace length (600 = paper).
	TraceSeconds int
	// SkipSlow drops the Fig. 5/6 policy sweep (the slowest stage).
	SkipSlow bool
	// Now is the injected clock for the per-stage elapsed annotations.
	// Leave nil for byte-identical reports: the timings are omitted and
	// the output becomes a pure function of the model. CLIs that want
	// wall timings (tecfan-bench) pass time.Now here — the wall clock
	// stays outside the deterministic exp package, per the
	// nondeterminism invariant (DESIGN.md §13).
	Now func() time.Time
}

// stage starts timing one report stage and returns a formatter for the
// heading suffix: " (12.3s)" with an injected clock, "" without.
func (opt ReportOptions) stage() func() string {
	if opt.Now == nil {
		return func() string { return "" }
	}
	start := opt.Now()
	return func() string {
		return fmt.Sprintf(" (%.1fs)", opt.Now().Sub(start).Seconds())
	}
}

// WriteReportContext runs the experiments against the environment and
// renders markdown to w. Cancellation aborts the in-flight experiment within
// one of its control periods.
func (e *Env) WriteReportContext(ctx context.Context, w io.Writer, opt ReportOptions) error {
	if opt.TraceSeconds == 0 {
		opt.TraceSeconds = 600
	}
	if err := checkTraceSeconds(opt.TraceSeconds); err != nil {
		return err
	}
	fmt.Fprintf(w, "# TECfan reproduction report\n\n")
	fmt.Fprintf(w, "Scale %.2f, violation budget %.2f, generated by exp.WriteReport.\n\n", e.Scale, e.ViolationBudget)

	// Table I.
	done := opt.stage()
	rows, err := e.Table1Opt(ctx, RowOptions[Table1Row]{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Table I%s\n\n", done())
	fmt.Fprintln(w, "| workload | thr | time ms (paper→ours) | power W | peak °C | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, r := range rows {
		verdict := "ok"
		if math.Abs(r.TimeMS-r.PaperTimeMS)/r.PaperTimeMS > 0.05 ||
			math.Abs(r.Power-r.PaperPower) > 4 || math.Abs(r.PeakT-r.PaperPeakT) > 5 {
			verdict = "**deviates**"
		}
		fmt.Fprintf(w, "| %s | %d | %.2f→%.2f | %.1f→%.1f | %.2f→%.2f | %s |\n",
			r.Workload, r.Threads, r.PaperTimeMS, r.TimeMS,
			r.PaperPower, r.Power, r.PaperPeakT, r.PeakT, verdict)
	}
	fmt.Fprintln(w)

	// Fig. 4.
	done = opt.stage()
	cases, err := e.Fig4Opt(ctx, RowOptions[Fig4Case]{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Fig. 4%s\n\n", done())
	fmt.Fprintln(w, "Paper: fan level 1 clean; level 2 violates; level 2 + TEC ≈ clean at ~¼ cooling power.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| bench | thr | viol L1 | viol L2 | viol L2+TEC | cooling L1 W | L2+TEC W |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, c := range cases {
		fmt.Fprintf(w, "| %s | %d | %.3f | %.3f | %.3f | %.1f | %.1f |\n",
			c.Bench, c.Threads, c.ViolL1, c.ViolL2, c.ViolTEC,
			c.FanPowerL1, c.FanPowerL2+c.TECPowerAvg)
	}
	fmt.Fprintln(w)

	// Fig. 5/6.
	if !opt.SkipSlow {
		done = opt.stage()
		r56, err := e.Fig56Context(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Fig. 5 & 6%s\n\n", done())
		fmt.Fprintln(w, "Paper means: TECfan delay ~1.04 / energy ~0.73 / best EDP; Fan+DVFS delay ~1.6 / energy ~0.66 / EDP > 1; Fan+TEC energy ~0.91.")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| policy | delay | power | energy | EDP |")
		fmt.Fprintln(w, "|---|---|---|---|---|")
		for _, p := range PolicyOrder {
			n := r56.MeanNorm(p)
			fmt.Fprintf(w, "| %s | %.3f | %.3f | %.3f | %.3f |\n", p, n.Delay, n.Power, n.Energy, n.EDP)
		}
		tf := r56.MeanNorm("TECfan")
		verdict := "TECfan best EDP ✓"
		for _, p := range PolicyOrder {
			if p != "TECfan" && r56.MeanNorm(p).EDP < tf.EDP {
				verdict = "**TECfan not best EDP**"
			}
		}
		fmt.Fprintf(w, "\n%s\n\n", verdict)
	}

	// Fig. 7.
	done = opt.stage()
	f7, err := fig7(ctx, e.Workers, opt.TraceSeconds)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Fig. 7%s\n\n", done())
	fmt.Fprintln(w, "Paper (normalized to OFTEC): TECfan energy ~0.71 at no delay; Oracle below TECfan with ~3% delay; Oracle-P ≈ TECfan.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| policy | delay | energy |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, r := range f7 {
		fmt.Fprintf(w, "| %s | %.3f | %.3f |\n", r.Policy, r.Delay, r.Energy)
	}
	fmt.Fprintln(w)

	// §III-E.
	hw, err := e.HardwareCost()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## §III-E hardware cost\n\n")
	fmt.Fprintf(w, "%d multipliers, %.2f%% area / %.2f%% power of the paper's reference die (bound: <1.7%%); per-core G band kl=%d.\n\n",
		hw.Paper.Multipliers, 100*hw.Paper.AreaOverhead, 100*hw.Paper.PowerOverhead, hw.KL)
	return nil
}
