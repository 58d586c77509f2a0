package exp

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"tecfan/internal/core"
	"tecfan/internal/fault"
	"tecfan/internal/sim"
	"tecfan/internal/workload"
)

// ChaosAbsSlack is the absolute violation-ratio slack added to the 2× budget
// of the chaos acceptance: the relative criterion alone is degenerate when
// the fault-free baseline is (near) zero, where doubling "nothing" forbids
// any transient at all.
const ChaosAbsSlack = 0.02

// DefaultChaosPolicies is the policy set a sweep uses when
// ChaosOptions.Policies is empty. Exported so the pool shard planner splits
// the exact sweep the single-process path would run.
func DefaultChaosPolicies() []string {
	return []string{"TECfan", "TECfan-FT"}
}

// ChaosOptions parameterizes a chaos sweep.
type ChaosOptions struct {
	Bench   string
	Threads int
	// Policies to sweep; default {"TECfan", "TECfan-FT"}.
	Policies []string
	// Scenarios to inject; default every built-in scenario.
	Scenarios []string
	// Seed drives fault-target selection and noise streams.
	Seed int64
	// Done carries rows already computed by an earlier, interrupted sweep
	// (matched by scenario + policy): they are emitted verbatim instead of
	// re-run, and a policy whose every row is done skips its fan-level
	// selection entirely. This is the row-level resume seam the control-plane
	// daemon checkpoints through.
	Done []ChaosRow
	// OnRow, when non-nil, observes every finished row in emission order —
	// including rows replayed from Done — before the sweep completes.
	OnRow func(ChaosRow)
}

// ChaosRow is one (scenario, policy) cell of the sweep.
type ChaosRow struct {
	Scenario string
	Desc     string
	Policy   string
	FanLevel int // §IV-C level chosen on the fault-free run

	// Failure modes. A panic anywhere in the run is caught and recorded; a
	// time cap arrives as an explicit sim.TimeCapError, never as
	// silent truncation.
	Panicked   bool
	PanicMsg   string
	Err        string
	TimeCapped bool

	// Metrics under fault vs the fault-free run of the same policy/level.
	Violation     float64
	BaseViolation float64
	EPI           float64
	BaseEPI       float64
	PeakTemp      float64

	// TECfan-FT telemetry (zero values for other policies).
	FailSafe         bool
	DetectionLatency float64 // s from first fault onset to first detection; -1 = none
	Recovery         float64 // s from fail-safe entry to sanitized peak < T_th; -1 = n/a

	Accepted bool
	Reason   string
}

// ChaosResult carries the sweep.
type ChaosResult struct {
	Bench     string
	Threads   int
	Threshold float64
	Seed      int64
	Rows      []ChaosRow
}

// Panics counts rows that panicked — the harness's hard invariant is that
// this is zero.
func (r *ChaosResult) Panics() int {
	n := 0
	for _, row := range r.Rows {
		if row.Panicked {
			n++
		}
	}
	return n
}

// Rejected counts rows that failed acceptance.
func (r *ChaosResult) Rejected() int {
	n := 0
	for _, row := range r.Rows {
		if !row.Accepted {
			n++
		}
	}
	return n
}

// Key identifies the row across resumed sweeps: its scenario and policy.
func (r ChaosRow) Key() [2]any { return [2]any{r.Scenario, r.Policy} }

// ChaosContext sweeps scenario × policy under fault injection: every policy
// first runs fault-free (with its §IV-C fan level), then once per scenario
// at the same level with the scenario injected. The fault-free selections
// run on the worker set, then the faulted cells do; rows are emitted, and
// OnRow sees them, in policy-major plan order at any Workers. Panics are caught per run;
// an incomplete run surfaces as an explicit time-cap row. A row is accepted
// when the faulted violation ratio stays within 2× the fault-free ratio
// plus ChaosAbsSlack, or when the controller demonstrably entered fail-safe.
//
// On error — a failed baseline or cancellation — the result holding every
// completed row returns alongside it, never nil, so an interrupted sweep's
// rows survive for resume (see ChaosOptions.Done) or reporting.
func (e *Env) ChaosContext(ctx context.Context, opt ChaosOptions) (*ChaosResult, error) {
	b, err := workload.ByName(opt.Bench, opt.Threads, e.Leak)
	if err != nil {
		return nil, err
	}
	sb := e.Scaled(b)
	policies := opt.Policies
	if len(policies) == 0 {
		policies = DefaultChaosPolicies()
	}
	for _, p := range policies {
		if _, err := e.Controller(p); err != nil {
			return nil, err
		}
	}
	names := opt.Scenarios
	if len(names) == 0 {
		names = fault.Names()
	}
	scenarios := make([]fault.Scenario, len(names))
	for i, n := range names {
		sc, err := fault.ByName(n)
		if err != nil {
			return nil, err
		}
		scenarios[i] = sc
	}

	// The base scenario (threshold definition) keeps the standard static-fan
	// setup; the comparison runs shorten the fan loop so it decides ~8 times
	// inside the benchmark horizon — the paper-scale default of 1 s never
	// fires within the tens-of-milliseconds runs, which would leave fan
	// faults, and the fault-tolerant controller's stuck-fan detection,
	// untestable. Fault-free baselines and faulted runs use the same period.
	env := *e
	if env.FanPeriod == 0 {
		env.FanPeriod = sb.TargetTimeMS / 1000 / 8
		if env.FanPeriod < 4e-3 {
			env.FanPeriod = 4e-3 // at least two control periods
		}
	}
	clean := env
	clean.Faults = nil
	out := &ChaosResult{Bench: opt.Bench, Threads: opt.Threads, Seed: opt.Seed}
	base, err := e.BaseScenarioContext(ctx, sb)
	if err != nil {
		return out, fmt.Errorf("chaos base scenario: %w", err)
	}
	threshold := base.Metrics.PeakTemp
	out.Threshold = threshold

	done := map[[2]any]ChaosRow{}
	for _, row := range opt.Done {
		done[row.Key()] = row
	}

	// Phase 1: the fault-free selection of every policy with a cell missing
	// from Done, so a policy whose every cell was already computed replays
	// without paying for it again.
	type selection struct {
		level int
		res   *sim.Result
	}
	var need []string
	for _, name := range policies {
		for _, sc := range scenarios {
			if _, ok := done[[2]any{sc.Name, name}]; !ok {
				need = append(need, name)
				break
			}
		}
	}
	sels := map[string]selection{}
	selErr := inOrder(ctx, e.Workers, len(need), func(ctx context.Context, i int) (selection, error) {
		level, res, err := clean.SelectFanLevelContext(ctx, sb, need[i], threshold)
		if err != nil {
			return selection{}, fmt.Errorf("chaos fault-free %s: %w", need[i], err)
		}
		return selection{level, res}, nil
	}, func(i int, s selection) { sels[need[i]] = s })

	// Phase 2: every cell in plan order, policy-major. A Done cell replays
	// as given; a missing one runs at its policy's selected level. The plan
	// ends at the first missing cell whose selection failed.
	type cell struct {
		policy string
		sc     fault.Scenario
	}
	var plan []cell
planning:
	for _, name := range policies {
		for _, sc := range scenarios {
			_, replay := done[[2]any{sc.Name, name}]
			if _, ok := sels[name]; !replay && !ok {
				break planning
			}
			plan = append(plan, cell{name, sc})
		}
	}
	err = inOrder(ctx, e.Workers, len(plan), func(ctx context.Context, i int) (ChaosRow, error) {
		c := plan[i]
		if row, ok := done[[2]any{c.sc.Name, c.policy}]; ok {
			return row, nil
		}
		sel := sels[c.policy]
		row := env.chaosOne(ctx, sb, c.policy, c.sc, threshold, sel.level, opt.Seed)
		row.BaseViolation = sel.res.Metrics.ViolationRatio
		row.BaseEPI = sel.res.Metrics.EPI
		row.Accepted, row.Reason = chaosAccept(row)
		if row.Err != "" && ctx.Err() != nil {
			// The row failed because the sweep was canceled, not because
			// the scenario misbehaved: stop instead of cascading spurious
			// failure rows, and drop the poisoned row — before emit, so
			// OnRow never checkpoints a row the result disowns (a
			// persisted poisoned row would be replayed verbatim into the
			// resumed sweep's output).
			return ChaosRow{}, fmt.Errorf("chaos %s/%s: %w", c.sc.Name, c.policy, ctx.Err())
		}
		return row, nil
	}, func(_ int, row ChaosRow) {
		out.Rows = append(out.Rows, row)
		if opt.OnRow != nil {
			opt.OnRow(row)
		}
	})
	if selErr != nil {
		return out, selErr
	}
	return out, err
}

// chaosOne executes one faulted run, converting panics into a recorded
// failure row instead of tearing the sweep down.
func (e *Env) chaosOne(ctx context.Context, b *workload.Benchmark, name string, sc fault.Scenario, threshold float64, level int, seed int64) (row ChaosRow) {
	row = ChaosRow{
		Scenario: sc.Name, Desc: sc.Desc, Policy: name, FanLevel: level,
		DetectionLatency: -1, Recovery: -1,
	}
	defer func() {
		if r := recover(); r != nil {
			row.Panicked = true
			row.PanicMsg = fmt.Sprint(r)
		}
	}()
	ctl, err := e.Controller(name)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	in := fault.NewInjector(sc, e.FaultLayout(b), seed)
	res, err := e.runOne(ctx, b, ctl, threshold, level, func(cfg *sim.Config) { cfg.Faults = in })
	if err != nil {
		row.Err = err.Error()
		row.TimeCapped = timeCapped(err)
		if !row.TimeCapped || res == nil {
			return row
		}
		// A time-capped run still carries partial metrics worth reporting.
	}
	row.Violation = res.Metrics.ViolationRatio
	row.EPI = res.Metrics.EPI
	row.PeakTemp = res.Metrics.PeakTemp
	if ft, ok := ctl.(*core.FT); ok {
		st := ft.Stats()
		row.FailSafe = st.FailSafe
		if st.FirstDetection >= 0 && in.EarliestStart() >= 0 {
			row.DetectionLatency = st.FirstDetection - in.EarliestStart()
			if row.DetectionLatency < 0 {
				row.DetectionLatency = 0
			}
		}
		if st.FailSafeAt >= 0 && st.RecoveredAt >= st.FailSafeAt {
			row.Recovery = st.RecoveredAt - st.FailSafeAt
		}
	}
	return row
}

// chaosAccept applies the acceptance rule to a finished row.
func chaosAccept(row ChaosRow) (bool, string) {
	switch {
	case row.Panicked:
		return false, "panicked"
	case row.Err != "" && !row.TimeCapped:
		return false, "run error"
	case row.FailSafe:
		return true, "fail-safe engaged"
	case row.TimeCapped:
		return false, "time cap without fail-safe"
	case row.Violation <= 2*row.BaseViolation+ChaosAbsSlack:
		return true, "violation within budget"
	default:
		return false, fmt.Sprintf("violation %.3f vs budget %.3f",
			row.Violation, 2*row.BaseViolation+ChaosAbsSlack)
	}
}

// WriteChaos renders the sweep as a Markdown report.
func WriteChaos(w io.Writer, r *ChaosResult) {
	fmt.Fprintf(w, "# Chaos sweep — %s/%d (T_th %.2f °C, seed %d)\n\n", r.Bench, r.Threads, r.Threshold, r.Seed)
	fmt.Fprintf(w, "%d runs, %d panics, %d rejected. Acceptance: violation ≤ 2×fault-free + %.0f%% absolute, or fail-safe engaged.\n\n",
		len(r.Rows), r.Panics(), r.Rejected(), 100*ChaosAbsSlack)
	fmt.Fprintln(w, "| scenario | policy | fan | viol % | base % | ΔEPI % | peak °C | fail-safe | detect ms | recover ms | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|")
	for _, row := range r.Rows {
		verdict := "ok: " + row.Reason
		if !row.Accepted {
			verdict = "FAIL: " + row.Reason
		}
		if row.Panicked {
			verdict = "PANIC: " + row.PanicMsg
		}
		fmt.Fprintf(w, "| %s | %s | %d | %.3f | %.3f | %+.1f | %.2f | %s | %s | %s | %s |\n",
			row.Scenario, row.Policy, row.FanLevel+1,
			100*row.Violation, 100*row.BaseViolation,
			100*deltaFrac(row.EPI, row.BaseEPI), row.PeakTemp,
			yesNo(row.FailSafe), ms(row.DetectionLatency), ms(row.Recovery), verdict)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Scenarios:")
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.Scenario] {
			seen[row.Scenario] = true
			fmt.Fprintf(w, "- **%s** — %s\n", row.Scenario, row.Desc)
		}
	}
}

// WriteChaosCSV emits the sweep as CSV for downstream tooling.
func WriteChaosCSV(w io.Writer, r *ChaosResult) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{
		"scenario", "policy", "fan_level", "violation", "base_violation",
		"epi", "base_epi", "peak_temp_c", "fail_safe", "detect_s", "recover_s",
		"time_capped", "panicked", "accepted", "reason",
	}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			row.Scenario, row.Policy, strconv.Itoa(row.FanLevel + 1),
			fmtF(row.Violation), fmtF(row.BaseViolation),
			fmtF(row.EPI), fmtF(row.BaseEPI), fmtF(row.PeakTemp),
			strconv.FormatBool(row.FailSafe), fmtF(row.DetectionLatency), fmtF(row.Recovery),
			strconv.FormatBool(row.TimeCapped), strconv.FormatBool(row.Panicked),
			strconv.FormatBool(row.Accepted), row.Reason,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func deltaFrac(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v/base - 1
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func ms(s float64) string {
	if s < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 1000*s)
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
