package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// runCompare prints one row per (workload, end-to-end metric) of two sides,
// each one result file or a comma-separated set of them: each side's median
// and quartiles, the change, and a verdict against the metric's bound. A
// single file contributes its per-pass samples; a set contributes one median
// per file, i.e. the run-to-run spread. A metric whose spread is wider than
// its bound is unresolved — unless every sample of b beats every sample of a
// — rather than reported unchanged. Exact counts must match exactly. The
// drift of the host yardstick (host.ref_ms) is shown beside the rows.
func runCompare(w io.Writer, specPath, aPaths, bPaths string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readSide(aPaths)
	if err != nil {
		return err
	}
	b, err := readSide(bPaths)
	if err != nil {
		return err
	}
	drift := 0.0
	if ra, rb := a.hostRef(), b.hostRef(); ra > 0 {
		drift = rb/ra - 1
	}
	fmt.Fprintf(w, "a: %s   b: %s   host.ref_ms drift %+.1f%%\n", aPaths, bPaths, 100*drift)
	fmt.Fprintf(w, "%-13s %-10s %24s %24s %8s %6s  %s\n", "workload", "metric", "a median [q1,q3]", "b median [q1,q3]", "delta", "bound", "verdict")
	regressed := 0
	for _, sw := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, oka := a.metric(sw.Name, m.Name)
			sb, okb := b.metric(sw.Name, m.Name)
			if !oka || !okb {
				continue
			}
			bound := *m.Bound // validate requires one on every end-to-end metric
			v := verdict(sa, sb, bound, m.Better)
			if v == "regressed" {
				regressed++
			}
			delta := 0.0
			if sa.Median != 0 {
				delta = sb.Median/sa.Median - 1
			}
			fmt.Fprintf(w, "%-13s %-10s %24s %24s %+7.1f%% %5.0f%%  %s\n", sw.Name, m.Name,
				fmtSummary(sa), fmtSummary(sb), 100*delta, 100*bound, v)
		}
		// Failures and wrong outputs may not increase at all.
		fa, wa, oka := a.outcomes(sw.Name)
		fb, wb, okb := b.outcomes(sw.Name)
		if oka && okb {
			for _, o := range []struct {
				name   string
				va, vb float64
			}{{"failed_ratio", fa, fb}, {"wrong_outputs", float64(wa), float64(wb)}} {
				v := "pass"
				if o.vb > o.va {
					v = "regressed"
					regressed++
				}
				fmt.Fprintf(w, "%-13s %-10s %24.4g %24.4g %8s %6s  %s\n", sw.Name, o.name, o.va, o.vb, "", "any", v)
			}
		}
		for _, name := range exactCounts {
			ca, oka := a.count(sw.Name, name)
			cb, okb := b.count(sw.Name, name)
			if oka && okb && ca != cb { //lint:tecfan-ignore floatcmp -- integer counts carried in float64: any difference is a change in work
				fmt.Fprintf(w, "%-13s %-10s count %v -> %v: the work itself changed\n", sw.Name, name, ca, cb)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}

// side is one side of a comparison: one or more result files.
type side []*report

func readSide(paths string) (side, error) {
	var s side
	for _, p := range strings.Split(paths, ",") {
		r, err := readReport(p)
		if err != nil {
			return nil, err
		}
		s = append(s, r)
	}
	return s, nil
}

// metric is a workload's summary on this side: the file's own per-pass
// summary, or the summary of the per-file medians.
func (s side) metric(workload, name string) (summary, bool) {
	var medians []float64
	for _, r := range s {
		w := r.workload(workload)
		if w == nil {
			return summary{}, false
		}
		m, ok := w.Metrics[name]
		if !ok || m.N == 0 {
			return summary{}, false
		}
		if len(s) == 1 {
			return m, true
		}
		medians = append(medians, m.Median)
	}
	return summarize(medians), true
}

// count is an exact count from the first traced file that has it.
func (s side) count(workload, name string) (float64, bool) {
	for _, r := range s {
		if w := r.workload(workload); w != nil && w.Layers != nil {
			return w.Layers[name].Median, true
		}
	}
	return 0, false
}

// outcomes is the worst failed ratio and wrong-output count of a workload
// over the side's files.
func (s side) outcomes(workload string) (failedRatio float64, wrong int, ok bool) {
	for _, r := range s {
		w := r.workload(workload)
		if w == nil {
			return 0, 0, false
		}
		failedRatio, wrong = max(failedRatio, w.failedRatio()), max(wrong, w.Wrong)
	}
	return failedRatio, wrong, true
}

func (s side) hostRef() float64 {
	var xs []float64
	for _, r := range s {
		xs = append(xs, r.HostRefMS.Median)
	}
	return median(xs)
}

// verdict judges b against a for one metric.
func verdict(a, b summary, bound float64, better string) string {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return "missing"
	}
	worse := b.Median/a.Median - 1
	if better == "higher" {
		worse = -worse
	}
	if max(a.spread(), b.spread()) > bound {
		if allBetter(a.Samples, b.Samples, better) {
			return "pass (every sample better)"
		}
		return "unresolved (spread > bound)"
	}
	if worse > bound {
		return "regressed"
	}
	return "pass"
}

func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (better == "lower" && y >= x) || (better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g,%.4g]", s.Median, s.Q1, s.Q3)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
