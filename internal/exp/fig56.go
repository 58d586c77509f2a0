package exp

import (
	"context"
	"fmt"
	"io"

	"tecfan/internal/perf"
	"tecfan/internal/sim"
	"tecfan/internal/workload"
)

// PolicyRun is one (policy, benchmark) cell of Fig. 5/6.
type PolicyRun struct {
	Policy    string
	Bench     string
	Threshold float64
	FanLevel  int // §IV-C-selected level
	Metrics   perf.Metrics
	Norm      perf.NormalizedMetrics // vs the base scenario
}

// Fig56Result carries every cell plus the per-benchmark base metrics.
type Fig56Result struct {
	Runs []PolicyRun
	Base map[string]perf.Metrics
}

// Fig56Context reproduces the §V-C cooling-performance comparison (Fig. 5)
// and the §V-D energy/performance comparison (Fig. 6) over the four
// 16-thread benchmarks: each policy runs as one RunCell against its
// benchmark's base scenario. The four base runs go first, then the cells,
// each group on e.Workers goroutines and collected in plan order. On error
// — a failed run or cancellation — the result holding every base and cell
// completed before it in that order returns alongside it, never nil, so
// partial sweeps stay renderable.
func (e *Env) Fig56Context(ctx context.Context) (*Fig56Result, error) {
	out := &Fig56Result{Base: map[string]perf.Metrics{}}
	var benches []*workload.Benchmark
	for _, b := range workload.Fig56Benchmarks(e.Leak) {
		benches = append(benches, e.Scaled(b))
	}
	bases := make([]*sim.Result, len(benches))
	err := inOrder(ctx, e.Workers, len(benches), func(ctx context.Context, i int) (*sim.Result, error) {
		base, err := e.BaseScenarioContext(ctx, benches[i])
		if err != nil {
			return nil, fmt.Errorf("fig56 base %s: %w", benches[i].Name, err)
		}
		return base, nil
	}, func(i int, base *sim.Result) {
		bases[i] = base
		out.Base[benches[i].Name] = base.Metrics
	})
	if err != nil {
		return out, err
	}
	np := len(PolicyOrder)
	err = inOrder(ctx, e.Workers, len(benches)*np, func(ctx context.Context, i int) (PolicyRun, error) {
		b, name := benches[i/np], PolicyOrder[i%np]
		run, err := e.RunCell(ctx, b, name, bases[i/np])
		if err != nil {
			return PolicyRun{}, fmt.Errorf("fig56 %s/%s: %w", b.Name, name, err)
		}
		return run, nil
	}, func(_ int, run PolicyRun) { out.Runs = append(out.Runs, run) })
	return out, err
}

// Cell returns the run for a (policy, bench) pair, or nil.
func (r *Fig56Result) Cell(policyName, bench string) *PolicyRun {
	for i := range r.Runs {
		if r.Runs[i].Policy == policyName && r.Runs[i].Bench == bench {
			return &r.Runs[i]
		}
	}
	return nil
}

// MeanNorm averages a policy's normalized metrics over all benchmarks — the
// "on average" numbers quoted in §V-D.
func (r *Fig56Result) MeanNorm(policyName string) perf.NormalizedMetrics {
	var acc perf.NormalizedMetrics
	n := 0
	for _, run := range r.Runs {
		if run.Policy != policyName {
			continue
		}
		acc.Delay += run.Norm.Delay
		acc.Power += run.Norm.Power
		acc.Energy += run.Norm.Energy
		acc.EDP += run.Norm.EDP
		n++
	}
	if n == 0 {
		return acc
	}
	acc.Delay /= float64(n)
	acc.Power /= float64(n)
	acc.Energy /= float64(n)
	acc.EDP /= float64(n)
	return acc
}

// WriteFig5 renders peak temperature and violation ratio per policy/bench.
func WriteFig5(w io.Writer, r *Fig56Result) {
	fmt.Fprintln(w, "Fig.5(a): peak temperature (°C);  Fig.5(b): violation ratio")
	fmt.Fprintf(w, "%-10s %8s", "bench", "T_th")
	for _, p := range PolicyOrder {
		fmt.Fprintf(w, " %16s", p)
	}
	fmt.Fprintln(w)
	benches := benchOrder(r)
	for _, b := range benches {
		var th float64
		if c := r.Cell(PolicyOrder[0], b); c != nil {
			th = c.Threshold
		}
		fmt.Fprintf(w, "%-10s %8.2f", b, th)
		for _, p := range PolicyOrder {
			if c := r.Cell(p, b); c != nil {
				fmt.Fprintf(w, "  %6.2fC/%6.3f%%", c.Metrics.PeakTemp, 100*c.Metrics.ViolationRatio)
			} else {
				fmt.Fprintf(w, " %16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteFig6 renders the four normalized panels.
func WriteFig6(w io.Writer, r *Fig56Result) {
	panels := []struct {
		title string
		get   func(perf.NormalizedMetrics) float64
	}{
		{"Fig.6(a) delay", func(n perf.NormalizedMetrics) float64 { return n.Delay }},
		{"Fig.6(b) power", func(n perf.NormalizedMetrics) float64 { return n.Power }},
		{"Fig.6(c) energy", func(n perf.NormalizedMetrics) float64 { return n.Energy }},
		{"Fig.6(d) EDP", func(n perf.NormalizedMetrics) float64 { return n.EDP }},
	}
	benches := benchOrder(r)
	for _, panel := range panels {
		fmt.Fprintf(w, "\n%s (normalized to base scenario)\n", panel.title)
		fmt.Fprintf(w, "%-10s", "bench")
		for _, p := range PolicyOrder {
			fmt.Fprintf(w, " %9s", p)
		}
		fmt.Fprintln(w)
		for _, b := range benches {
			fmt.Fprintf(w, "%-10s", b)
			for _, p := range PolicyOrder {
				if c := r.Cell(p, b); c != nil {
					fmt.Fprintf(w, " %9.3f", panel.get(c.Norm))
				} else {
					fmt.Fprintf(w, " %9s", "-")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-10s", "mean")
		for _, p := range PolicyOrder {
			fmt.Fprintf(w, " %9.3f", panel.get(r.MeanNorm(p)))
		}
		fmt.Fprintln(w)
	}
}

func benchOrder(r *Fig56Result) []string {
	var out []string
	seen := map[string]bool{}
	for _, run := range r.Runs {
		if !seen[run.Bench] {
			seen[run.Bench] = true
			out = append(out, run.Bench)
		}
	}
	return out
}
