package tecfan

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"tecfan/internal/exp"
	"tecfan/internal/fault"
	"tecfan/internal/numfault"
	"tecfan/internal/numguard"
	"tecfan/internal/perf"
	"tecfan/internal/sim"
	"tecfan/internal/workload"
)

// System is the top-level handle: a 16-core SCC-style CMP with its cooling
// package, workload set, and the TECfan/baseline controllers.
type System struct {
	env *exp.Env
}

// Option configures a System. Options validate their arguments and report
// bad values as errors from New instead of silently falling back to defaults.
type Option func(*exp.Env) error

// WithScale shrinks every benchmark's instruction budget by the given factor
// (1 = the paper's full length). Useful for fast exploratory runs.
func WithScale(scale float64) Option {
	return func(e *exp.Env) error {
		if scale <= 0 {
			return fmt.Errorf("tecfan: scale must be positive, got %g", scale)
		}
		e.Scale = scale
		return nil
	}
}

// WithViolationBudget overrides the §IV-C fan-selection violation budget
// (a fraction of run time in [0, 1)).
func WithViolationBudget(b float64) Option {
	return func(e *exp.Env) error {
		if b < 0 || b >= 1 {
			return fmt.Errorf("tecfan: violation budget must be in [0, 1), got %g", b)
		}
		e.ViolationBudget = b
		return nil
	}
}

// WithFaultScenario injects a named built-in fault scenario (see Scenarios)
// into every subsequent run; seed makes the fault-target selection
// reproducible. The base scenario stays fault-free by definition.
func WithFaultScenario(name string, seed int64) Option {
	return func(e *exp.Env) error {
		sc, err := fault.ByName(name)
		if err != nil {
			return err
		}
		e.Faults = &sc
		e.FaultSeed = seed
		return nil
	}
}

// WithNumFaults arms the numerical-chaos injector for every subsequent run
// from a parsed schedule (numfault.ParseScheduleFile, or schedfile.Parse for
// bytes; see internal/numfault for the rule format), seeded by the
// schedule's own seed.
// The base scenario stays clean by definition.
func WithNumFaults(s numfault.Schedule) Option {
	return func(e *exp.Env) error {
		if err := s.Validate(); err != nil {
			return err
		}
		e.NumFaults = &s
		return nil
	}
}

// New builds the full-scale 16-core system.
func New(opts ...Option) (*System, error) {
	env := exp.NewEnv()
	for _, o := range opts {
		if err := o(env); err != nil {
			return nil, err
		}
	}
	return &System{env: env}, nil
}

// Metrics re-exports the evaluation record: time, energy, average power,
// peak temperature, violation ratio, EPI, and EDP of a run.
type Metrics = perf.Metrics

// Report is the outcome of one policy run.
type Report struct {
	Benchmark string
	Threads   int
	Policy    string
	FanLevel  int // §IV-C-selected fan level (0 = fastest)
	Threshold float64
	Metrics   Metrics
	// Normalized holds delay/power/energy/EDP relative to the base
	// scenario of the same benchmark.
	Normalized perf.NormalizedMetrics
}

// Policies lists the available controllers: the paper's five in presentation
// order, then the fault-tolerant TECfan-FT variant.
func (s *System) Policies() []string { return exp.AllPolicies() }

// Scenarios lists the built-in fault scenarios accepted by WithFaultScenario
// and the chaos sweep.
func Scenarios() []string { return fault.Names() }

// FanLevels returns the number of discrete fan speed levels (level 1 is the
// fastest).
func (s *System) FanLevels() int { return s.env.Fan.NumLevels() }

// Benchmarks lists the Table I workload configurations as "name/threads".
func (s *System) Benchmarks() []string {
	out := workload.Configs()
	sort.Strings(out)
	return out
}

// Run executes one benchmark under one policy: the base scenario defines
// the temperature threshold, the fan level follows the §IV-C selection, and
// the report carries raw and base-normalized metrics.
func (s *System) Run(bench string, threads int, policyName string) (*Report, error) {
	return s.RunContext(context.Background(), bench, threads, policyName)
}

// RunContext is Run under a context: cancellation aborts the in-flight
// simulation within one control period of simulated work.
func (s *System) RunContext(ctx context.Context, bench string, threads int, policyName string) (*Report, error) {
	b, err := workload.ByName(bench, threads, s.env.Leak)
	if err != nil {
		return nil, err
	}
	sb := s.env.Scaled(b)
	base, err := s.env.BaseScenarioContext(ctx, sb)
	if err != nil {
		return nil, err
	}
	run, err := s.env.RunCell(ctx, sb, policyName, base)
	if err != nil {
		return nil, err
	}
	return &Report{
		Benchmark:  bench,
		Threads:    threads,
		Policy:     policyName,
		FanLevel:   run.FanLevel,
		Threshold:  run.Threshold,
		Metrics:    run.Metrics,
		Normalized: run.Norm,
	}, nil
}

// Trace runs one benchmark at a fixed fan level with trace recording and
// returns the per-control-period samples (time, peak temperature, chip
// power, TECs on, mean DVFS) — the raw material of the Fig. 4 time series.
func (s *System) Trace(bench string, threads int, policyName string, fanLevel int) ([]sim.TracePoint, error) {
	return s.TraceContext(context.Background(), bench, threads, policyName, fanLevel)
}

// TraceContext is Trace under a context. On cancellation the samples recorded
// so far return alongside the error, so an interrupted trace is still
// plottable.
func (s *System) TraceContext(ctx context.Context, bench string, threads int, policyName string, fanLevel int) ([]sim.TracePoint, error) {
	trace, _, err := s.TraceWithHealthContext(ctx, bench, threads, policyName, fanLevel)
	return trace, err
}

// NumericHealth is the invariant auditor's per-run report: solver
// refinements, recovered/held steps, and the structured diagnosis of a
// confirmed numeric divergence.
type NumericHealth = numguard.Health

// TraceWithHealthContext is TraceContext with the run's NumericHealth block
// alongside the samples. On a refused divergence (a controller without a
// fail-safe) the partial trace and health return with the error — finite up
// to the refusal point, never containing non-finite values.
func (s *System) TraceWithHealthContext(ctx context.Context, bench string, threads int, policyName string, fanLevel int) ([]sim.TracePoint, *NumericHealth, error) {
	b, err := workload.ByName(bench, threads, s.env.Leak)
	if err != nil {
		return nil, nil, err
	}
	ctl, err := s.env.Controller(policyName)
	if err != nil {
		return nil, nil, err
	}
	sb := s.env.Scaled(b)
	base, err := s.env.BaseScenarioContext(ctx, sb)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.env.RunTracedContext(ctx, sb, ctl, base.Metrics.PeakTemp, fanLevel)
	if err != nil {
		if res != nil {
			return res.Trace, res.Numeric, err
		}
		return nil, nil, err
	}
	return res.Trace, res.Numeric, nil
}

// Table1 regenerates the paper's Table I.
func (s *System) Table1() ([]exp.Table1Row, error) { return s.Table1Context(context.Background()) }

// Table1Context is Table1 under a context; completed rows return alongside
// any error.
func (s *System) Table1Context(ctx context.Context) ([]exp.Table1Row, error) {
	return s.env.Table1Opt(ctx, exp.RowOptions[exp.Table1Row]{})
}

// Fig4 regenerates the §V-B comparison.
func (s *System) Fig4() ([]exp.Fig4Case, error) { return s.Fig4Context(context.Background()) }

// Fig4Context is Fig4 under a context; completed cases return alongside any
// error.
func (s *System) Fig4Context(ctx context.Context) ([]exp.Fig4Case, error) {
	return s.env.Fig4Opt(ctx, exp.RowOptions[exp.Fig4Case]{})
}

// Fig56 regenerates the §V-C/§V-D comparisons.
func (s *System) Fig56() (*exp.Fig56Result, error) { return s.Fig56Context(context.Background()) }

// Fig56Context is Fig56 under a context; the partial result returns alongside
// any error.
func (s *System) Fig56Context(ctx context.Context) (*exp.Fig56Result, error) {
	return s.env.Fig56Context(ctx)
}

// Fig7 regenerates the §V-E server comparison; seconds is the per-core
// trace length (600 = the paper's 10 minutes).
func Fig7(seconds int) ([]exp.Fig7Row, error) { return Fig7Context(context.Background(), seconds) }

// Fig7Context is Fig7 under a context.
func Fig7Context(ctx context.Context, seconds int) ([]exp.Fig7Row, error) {
	return exp.Fig7Context(ctx, seconds)
}

// HardwareCost regenerates the §III-E systolic cost analysis.
func (s *System) HardwareCost() (*exp.HardwareCostReport, error) { return s.env.HardwareCost() }

// Ablations removes one TECfan knob at a time (TEC / DVFS / per-core
// DVFS / binary current) on one benchmark — the coordination claim,
// quantified — and sweeps the lower-level control period around the
// paper's 2 ms choice. The two share the base scenario and the full
// controller's 2 ms run; pass no periods for the knob rows alone.
func (s *System) Ablations(bench string, periods []float64) (knob, period []exp.AblationRow, err error) {
	return s.env.Ablations(context.Background(), bench, periods)
}

// CurrentAblation sweeps the TEC drive current on a hot-core scenario,
// exposing the diminishing return behind the paper's conservative 6 A.
func (s *System) CurrentAblation(currents []float64) ([]exp.CurrentAblationRow, error) {
	return s.env.CurrentAblation(currents)
}

// PlacementAblation compares hot-row-aligned vs uniform TEC placement.
func (s *System) PlacementAblation() (aligned, uniform float64, err error) {
	return s.env.PlacementAblation()
}

// ControllerScaling measures one worst-case TECfan control period on
// growing tile grids — the paper's O(NL + N²M) vs O(M^N·2^{NL}) complexity
// argument, measured. grids lists square tile-grid dimensions (2 → 4
// cores, 4 → 16 cores, ...). The wall clock is injected here, at the
// facade: the exp package itself stays deterministic (DESIGN.md §13).
func ControllerScaling(grids []int) ([]exp.ScalingRow, error) {
	return exp.ControllerScaling(time.Now, grids)
}

// Timescales measures the 90 % step-response settling time of the three
// actuators on the assembled thermal network — §III-D's time-scale
// observation, measured rather than quoted.
func (s *System) Timescales() ([]exp.StepResponse, error) {
	return s.env.Timescales()
}

// OracleGap exhaustively solves the Eq. (13) optimization on a single core
// tile (15 360 configurations) and measures how close TECfan's settled
// decision lands — the §V-E "comparable with the oracle" claim on the
// component-level model. severity is how far (°C) the hot operating point
// sits above the threshold.
func OracleGap(severity float64) (*exp.OracleGapResult, error) {
	return exp.OracleGap(severity)
}

// WriteReport runs the reproduction experiments and emits a markdown
// paper-vs-measured report.
func (s *System) WriteReport(w io.Writer, opt exp.ReportOptions) error {
	return s.WriteReportContext(context.Background(), w, opt)
}

// WriteReportContext is WriteReport under a context.
func (s *System) WriteReportContext(ctx context.Context, w io.Writer, opt exp.ReportOptions) error {
	return s.env.WriteReportContext(ctx, w, opt)
}

// ReportOptions re-exports the report configuration.
type ReportOptions = exp.ReportOptions

// Chaos sweeps fault scenario × policy under injection and reports, per
// cell, violation/EPI deltas versus the fault-free run plus the
// fault-tolerant controller's detection and recovery telemetry. Empty
// option fields take defaults (TECfan + TECfan-FT across every built-in
// scenario).
func (s *System) Chaos(opt exp.ChaosOptions) (*exp.ChaosResult, error) {
	return s.ChaosContext(context.Background(), opt)
}

// ChaosContext is Chaos under a context; the partial result — every
// completed row — returns alongside any error.
func (s *System) ChaosContext(ctx context.Context, opt exp.ChaosOptions) (*exp.ChaosResult, error) {
	return s.env.ChaosContext(ctx, opt)
}

// Env exposes the underlying experiment environment for advanced embedders
// (the control-plane daemon builds checkpointed runners through it).
func (s *System) Env() *exp.Env { return s.env }

// ChaosOptions and ChaosResult re-export the chaos-sweep configuration and
// report types.
type (
	ChaosOptions = exp.ChaosOptions
	ChaosResult  = exp.ChaosResult
)

// MixStudy runs TECfan on a heterogeneous half-lu/half-volrend chip and
// reports where the TEC duty concentrates — the local-cooling premise.
func (s *System) MixStudy() (*exp.MixResult, error) { return s.env.MixStudy(context.Background()) }

// MappingStudy runs a 4-thread benchmark under the standard thread
// placements (center/corner/spread/row) — the cooling-aware-scheduling
// angle of the paper's related work.
func (s *System) MappingStudy(bench, policyName string) ([]exp.MappingRow, error) {
	return s.env.MappingStudy(context.Background(), bench, policyName)
}

// Writers for the regenerated artifacts.
func WriteTable1(w io.Writer, rows []exp.Table1Row) { exp.WriteTable1(w, rows) }
func WriteFig4(w io.Writer, cases []exp.Fig4Case)   { exp.WriteFig4(w, cases) }
func WriteFig5(w io.Writer, r *exp.Fig56Result)     { exp.WriteFig5(w, r) }
func WriteFig6(w io.Writer, r *exp.Fig56Result)     { exp.WriteFig6(w, r) }
func WriteFig7(w io.Writer, rows []exp.Fig7Row)     { exp.WriteFig7(w, rows) }
func WriteHardwareCost(w io.Writer, r *exp.HardwareCostReport) {
	exp.WriteHardwareCost(w, r)
}
func WriteAblation(w io.Writer, title string, rows []exp.AblationRow) {
	exp.WriteAblation(w, title, rows)
}
func WriteCurrentAblation(w io.Writer, rows []exp.CurrentAblationRow) {
	exp.WriteCurrentAblation(w, rows)
}
func WriteMappingStudy(w io.Writer, bench string, rows []exp.MappingRow) {
	exp.WriteMappingStudy(w, bench, rows)
}
func WriteTimescales(w io.Writer, rows []exp.StepResponse) {
	exp.WriteTimescales(w, rows)
}
func WriteScaling(w io.Writer, rows []exp.ScalingRow) { exp.WriteScaling(w, rows) }
func WriteChaos(w io.Writer, r *exp.ChaosResult)      { exp.WriteChaos(w, r) }
func WriteChaosCSV(w io.Writer, r *exp.ChaosResult) error {
	return exp.WriteChaosCSV(w, r)
}
func WriteMixStudy(w io.Writer, r *exp.MixResult)        { exp.WriteMixStudy(w, r) }
func WriteOracleGap(w io.Writer, r *exp.OracleGapResult) { exp.WriteOracleGap(w, r) }
