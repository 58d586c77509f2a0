// Package sim couples the workload, power, thermal, TEC, fan, and DVFS
// models into the discrete-time co-simulation the paper runs on
// SESC+HotSpot (§IV-B): per-step it evaluates dynamic power from the
// workload trace at the current DVFS levels, ground-truth quadratic leakage
// from the current temperatures (the temperature–leakage loop the authors
// patched into HotSpot's transient routine), integrates the RC network, and
// advances per-core instruction progress. A pluggable controller is invoked
// every lower-level control period (2 ms) and, optionally, every higher-level
// fan period.
//
// Following §IV-C, a benchmark run executes at a fixed fan level after a
// warm-start procedure that reproduces the paper's convergence loop: repeat
// the run with the previous final temperatures as the initial condition
// until consecutive peak temperatures differ by less than 0.5 °C.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tecfan/internal/fan"
	"tecfan/internal/floats"
	"tecfan/internal/floorplan"
	"tecfan/internal/linalg"
	"tecfan/internal/numguard"
	"tecfan/internal/perf"
	"tecfan/internal/power"
	"tecfan/internal/tec"
	"tecfan/internal/thermal"
	"tecfan/internal/workload"
)

// Observation is what a controller sees at a control boundary: the
// previous-interval measurements the paper's models consume (P(k−1),
// IPS(k−1), T(k−1)).
type Observation struct {
	Time      float64   // simulation time, s
	Temps     []float64 // current node temperatures (die first), °C
	DynPower  []float64 // avg per-component dynamic power over last period, W
	CoreIPS   []float64 // avg per-core IPS over last period
	DVFS      []int     // current per-core levels
	TECOn     []bool    // current TEC on/off vector
	TECAmps   []float64 // current per-device drive currents, A (0 = off)
	FanLevel  int
	Threshold float64
}

// Decision is a controller's actuator request. Nil slices mean "unchanged".
// TECAmps, when set, takes precedence over TECOn and drives each device at
// the given current — the variable-current extension of §III.
type Decision struct {
	DVFS    []int
	TECOn   []bool
	TECAmps []float64
}

// Controller is the lower-level (2 ms) decision maker.
type Controller interface {
	Name() string
	Control(obs *Observation) Decision
	// Reset clears internal state between warm-start iterations.
	Reset()
}

// ActuatorState describes the currently applied actuator configuration,
// handed to Faults.FilterDecision so persistent faults (a device stuck on, a
// dropped request) can be expressed relative to what is physically in
// effect. Slices are private copies.
type ActuatorState struct {
	DVFS     []int
	TECAmps  []float64 // nil when the run has no TECs
	FanLevel int
}

// Faults is the fault-injection seam between the controller and the chip
// (implemented by fault.Injector): it corrupts what the controller sees and
// intercepts what it asks for.
type Faults interface {
	// Observe transforms each Observation before the controller sees it —
	// stuck, noisy, dropped-out, or biased sensors. The observation's
	// slices are private copies of the live state, so it may mutate them
	// freely without corrupting the simulation. The copies live in buffers
	// the runner reuses across boundaries, though: an Observation is valid
	// only for the duration of the call it is handed to, and a fault model
	// (or controller) that retains measurements across periods must
	// deep-copy them.
	Observe(obs *Observation)
	// FilterDecision intercepts a controller request before it reaches the
	// physical actuators — failed TEC devices, ignored DVFS requests. It may
	// mutate dec in place; setting a slice to nil drops that request
	// entirely (the actuator keeps its current state). It is also invoked
	// once at t = 0 with an empty decision so always-on faults apply from
	// the first step.
	FilterDecision(now float64, cur ActuatorState, dec *Decision)
	// FilterFan maps a requested fan level to the level actually applied.
	FilterFan(now float64, level int) int
	// Reset clears internal state (stuck-value memory, noise streams)
	// between warm-start iterations.
	Reset()
}

// FanController is optionally implemented by controllers that drive the fan
// at the higher level (TECfan's outer loop). Others run at the fixed level
// chosen by the experiment driver.
type FanController interface {
	FanControl(obs *Observation) int
}

// NumFaultInjector corrupts the integrator's inputs and outputs per a
// seeded schedule — the numerical-chaos seam (implemented by
// numfault.Injector) that proves the numguard auditor catches every
// violation. Injection must be a pure function of (step, retry), carrying
// no draw-count state, so resumed runs replay identical faults.
type NumFaultInjector interface {
	// CorruptPower may corrupt the per-component power vector before the
	// thermal step; CorruptTemps may corrupt the temperature vector after
	// it. retry restricts the injection to persistent rules (the step
	// fallback re-attempt). Both report whether anything fired.
	CorruptPower(step int, retry bool, power []float64) bool
	CorruptTemps(step int, retry bool, temps []float64) bool
}

// NumericEscalator is optionally implemented by controllers that can absorb
// a confirmed numeric divergence: the simulator reports the structured
// diagnosis once and keeps stepping with the last good state held, letting
// the controller wind the run down in its fail-safe. Controllers without it
// cause the run to refuse cleanly with a *DivergenceError instead.
type NumericEscalator interface {
	EscalateNumeric(v numguard.Violation)
}

// StateCodec is optionally implemented by controllers and fault models whose
// internal state must survive checkpoint/restore.
// MarshalState captures the complete mutable state; UnmarshalState replaces
// the receiver's state wholesale (no merging), so a restored run continues
// bitwise-identically to the uninterrupted one. Stateless components simply
// don't implement it.
type StateCodec interface {
	MarshalState() ([]byte, error)
	UnmarshalState(data []byte) error
}

// Config assembles one simulation run.
type Config struct {
	Chip      *floorplan.Chip
	Fan       *fan.Model
	Network   *thermal.Network
	DVFS      *power.DVFSTable
	Leak      power.Leakage
	TECs      []tec.Placement
	Bench     *workload.Benchmark
	Threshold float64 // T_th, °C

	FanLevel      int     // initial / fixed fan level
	Step          float64 // integration step, s (default 100 µs)
	ControlPeriod float64 // lower-level period, s (default 2 ms)
	FanPeriod     float64 // higher-level period, s (default 1 s)

	// RecordTrace enables per-control-period trace capture.
	RecordTrace bool
	// MaxWarmStarts bounds the convergence loop (default 5).
	MaxWarmStarts int

	// Faults, when non-nil, corrupts every observation before the
	// controller reads it and intercepts every controller request before it
	// is applied.
	Faults Faults
	// NumFaults, when non-nil, injects scheduled numerical corruption into
	// the step loop — the proof harness for the always-on invariant
	// auditor.
	NumFaults NumFaultInjector

	// CheckpointEvery takes a state snapshot every N control periods
	// (0 = never). Snapshots are also taken once at the cancellation point
	// when the run context is canceled, so graceful shutdown always leaves a
	// resumable checkpoint behind.
	CheckpointEvery int
	// OnCheckpoint receives every snapshot; a non-nil error aborts the run.
	// The snapshot is freshly allocated and safe to retain or serialize.
	OnCheckpoint func(*Snapshot) error
}

func (c *Config) fillDefaults() {
	if c.Step == 0 {
		c.Step = 100e-6
	}
	if c.ControlPeriod == 0 {
		c.ControlPeriod = 2e-3
	}
	if c.FanPeriod == 0 {
		c.FanPeriod = 1.0
	}
	if c.MaxWarmStarts == 0 {
		c.MaxWarmStarts = 5
	}
}

const (
	// maxTimeFactor caps a run at factor × the base execution time: a
	// safety net against livelocked controllers.
	maxTimeFactor = 4
	// warmStartTol is the paper's convergence criterion on consecutive
	// peak temperatures (§IV-B), °C.
	warmStartTol = 0.5
)

// TracePoint is one control-period sample of the run.
type TracePoint struct {
	Time      float64
	PeakTemp  float64
	PeakComp  int
	ChipPower float64
	FanLevel  int
	TECsOn    int
	MeanDVFS  float64
}

// Result is the outcome of one simulation run.
type Result struct {
	Metrics    perf.Metrics
	Trace      []TracePoint
	FinalTemps []float64
	WarmStarts int
	// Completed reports whether every active core retired its budget
	// before the maxTimeFactor cap. An incomplete run is also reported as
	// a *TimeCapError from Run, so truncation is never silent.
	Completed bool
	// Converged reports whether the warm-start loop met warmStartTol
	// before MaxWarmStarts ran out.
	Converged bool
	// Numeric is the NumericHealth block: refinement and recovery counters
	// from the invariant auditor, plus the structured diagnosis when a
	// divergence was confirmed. Never nil on a Result returned by Run.
	Numeric *numguard.Health

	finalDVFS []int
	finalAmps []float64
}

// TimeCapError reports that a run was stopped by the maxTimeFactor safety
// net before the workload completed — a livelocked or over-throttling
// controller. The partial Result is still returned alongside it.
type TimeCapError struct {
	Time    float64 // simulation time at the cap, s
	Retired float64 // instructions retired
	Budget  float64 // instruction budget
}

func (e *TimeCapError) Error() string {
	return fmt.Sprintf("sim: MaxTimeFactor cap hit at t=%.4gs with %.3g of %.3g instructions retired (livelocked or over-throttled controller)",
		e.Time, e.Retired, e.Budget)
}

// DivergenceError reports a confirmed numeric divergence in a run whose
// controller cannot absorb it (it does not implement NumericEscalator): the
// run refuses to continue rather than emit corrupt metrics. The partial
// Result — finite metrics up to the divergence point plus the NumericHealth
// diagnosis — is returned alongside.
type DivergenceError struct {
	V numguard.Violation
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("sim: confirmed numeric divergence: %s", e.V.String())
}

// Snapshot is the complete mid-run state captured at a control boundary: the
// thermal field, actuator configuration, workload progress, metric
// accumulators, warm-start loop position, and the opaque serialized state of
// every StateCodec component. Resume on an identically configured Runner
// continues the run bitwise-identically to an uninterrupted one.
type Snapshot struct {
	// SimTime/StepIdx locate the boundary the snapshot was taken at.
	SimTime float64
	StepIdx int
	// WarmStart is the 0-based warm-start iteration in progress; PrevPeak is
	// the previous iteration's peak temperature (+Inf on the first).
	WarmStart int
	PrevPeak  float64

	Temps    []float64
	DVFS     []int
	TEC      *tec.StateSnapshot // nil when the run has no TECs
	FanLevel int

	InstDone  []float64
	TotalDone float64

	Acc   perf.AccumulatorState
	Trace []TracePoint

	// Numeric is the invariant auditor's state (energy integral, recovery
	// counters, diagnosis). Nil in snapshots written before the auditor
	// existed; resume then seeds the energy integral from Acc.
	Numeric *numguard.State

	// Serialized StateCodec blobs of the controller and of Config.Faults;
	// nil when the component is stateless (or absent).
	Controller []byte
	Faults     []byte
}

// Runner executes simulation runs for one configuration.
type Runner struct {
	cfg Config
	ctl Controller
	// powerMap is cfg.Bench's power map on cfg.Chip, resolved once per
	// runner.
	powerMap *workload.PowerMap
}

// NewRunner validates the configuration and builds a runner.
func NewRunner(cfg Config, ctl Controller) (*Runner, error) {
	if cfg.Chip == nil || cfg.Fan == nil || cfg.Network == nil || cfg.DVFS == nil || cfg.Bench == nil {
		return nil, fmt.Errorf("sim: incomplete config")
	}
	cfg.fillDefaults()
	if cfg.Threshold <= 0 {
		return nil, fmt.Errorf("sim: threshold %v must be positive", cfg.Threshold)
	}
	if cfg.FanLevel < 0 || cfg.FanLevel >= cfg.Fan.NumLevels() {
		return nil, fmt.Errorf("sim: fan level %d out of range", cfg.FanLevel)
	}
	if ctl == nil {
		return nil, fmt.Errorf("sim: nil controller")
	}
	return &Runner{cfg: cfg, ctl: ctl, powerMap: cfg.Bench.PowerMap(cfg.Chip)}, nil
}

// Run performs the warm-start loop and returns the converged run's result.
// Both the thermal field and the actuator state (DVFS levels, TEC on/off)
// carry across iterations, mirroring §IV-B: the paper repeats each
// simulation with the previous result as the initial condition until the
// peak temperatures of consecutive runs differ by less than 0.5 °C, so the
// reported run reflects steady controller behaviour, not its cold-start
// descent.
func (r *Runner) Run() (*Result, error) { return r.RunContext(context.Background()) }

// RunContext is Run under a context: cancellation is observed at every
// control boundary (within one control period of simulated work), the
// partial Result is returned alongside the wrapped context error, and — when
// checkpointing is configured — a final snapshot is emitted at the
// cancellation point so the run can be resumed later.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	return r.run(ctx, nil)
}

// Resume continues a run from a Snapshot previously emitted through
// Config.OnCheckpoint. The Runner must be configured identically to the one
// that produced the snapshot (same chip, benchmark, thresholds, periods) and
// hold fresh controller and fault instances of the same types; their
// serialized state is restored before simulation restarts. The continued run
// is bitwise-identical to the uninterrupted one.
func (r *Runner) Resume(ctx context.Context, snap *Snapshot) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("sim: nil snapshot")
	}
	if err := r.validateSnapshot(snap); err != nil {
		return nil, err
	}
	if err := restoreCodec("controller", r.ctl, snap.Controller); err != nil {
		return nil, err
	}
	if err := restoreCodec("faults", r.cfg.Faults, snap.Faults); err != nil {
		return nil, err
	}
	return r.run(ctx, snap)
}

// validateSnapshot rejects snapshots whose shape cannot belong to this
// runner's configuration before any state is overwritten.
func (r *Runner) validateSnapshot(snap *Snapshot) error {
	cfg := &r.cfg
	if n := cfg.Network.NumNodes(); len(snap.Temps) != n {
		return fmt.Errorf("sim: snapshot has %d node temperatures, want %d", len(snap.Temps), n)
	}
	if n := cfg.Chip.NumCores(); len(snap.DVFS) != n || len(snap.InstDone) != n {
		return fmt.Errorf("sim: snapshot DVFS/progress for %d/%d cores, want %d",
			len(snap.DVFS), len(snap.InstDone), n)
	}
	if (snap.TEC != nil) != (cfg.TECs != nil) {
		return fmt.Errorf("sim: snapshot TEC state mismatches configuration")
	}
	if snap.FanLevel < 0 || snap.FanLevel >= cfg.Fan.NumLevels() {
		return fmt.Errorf("sim: snapshot fan level %d out of range", snap.FanLevel)
	}
	if snap.WarmStart < 0 || snap.WarmStart >= cfg.MaxWarmStarts {
		return fmt.Errorf("sim: snapshot warm-start %d outside [0, %d)", snap.WarmStart, cfg.MaxWarmStarts)
	}
	if snap.StepIdx < 0 || snap.SimTime < 0 || !floats.Finite(snap.SimTime) {
		return fmt.Errorf("sim: snapshot position t=%v step=%d invalid", snap.SimTime, snap.StepIdx)
	}
	if !floats.AllFinite(snap.Temps) {
		return fmt.Errorf("sim: snapshot temperature field contains non-finite values")
	}
	return nil
}

// restoreCodec loads a serialized state blob into a component. A blob
// without a StateCodec (or the reverse) means the resume-side component is
// not the type that produced the snapshot — an error, never a silent skip.
func restoreCodec(what string, comp any, blob []byte) error {
	codec, ok := comp.(StateCodec)
	if blob == nil {
		if ok {
			return fmt.Errorf("sim: snapshot carries no %s state but the %s is stateful", what, what)
		}
		return nil
	}
	if !ok {
		return fmt.Errorf("sim: snapshot carries %s state but the %s cannot restore it", what, what)
	}
	if err := codec.UnmarshalState(blob); err != nil {
		return fmt.Errorf("sim: restoring %s state: %w", what, err)
	}
	return nil
}

// marshalCodec captures a component's state blob (nil for stateless ones).
func marshalCodec(what string, comp any) ([]byte, error) {
	codec, ok := comp.(StateCodec)
	if !ok {
		return nil, nil
	}
	blob, err := codec.MarshalState()
	if err != nil {
		return nil, fmt.Errorf("sim: capturing %s state: %w", what, err)
	}
	return blob, nil
}

// run drives the warm-start loop, starting fresh or from a snapshot.
func (r *Runner) run(ctx context.Context, snap *Snapshot) (*Result, error) {
	cfg := &r.cfg
	var init []float64
	var initDVFS []int
	var initAmps []float64
	prevPeak := math.Inf(1)
	ws0 := 0
	if snap != nil {
		ws0, prevPeak = snap.WarmStart, snap.PrevPeak
	} else {
		// Initial condition: steady state at mean power with initial
		// actuators — the "default uniform initial temperature" of §IV-B,
		// improved to the nearby steady state so the convergence loop is
		// short.
		var err error
		init, err = r.initialTemps()
		if err != nil {
			return nil, err
		}
	}
	// One auditor per run: its counters and diagnosis describe the whole
	// warm-start loop, and it rides in every checkpoint.
	guard := numguard.New()
	var res *Result
	var err error
	for ws := ws0; ws < cfg.MaxWarmStarts; ws++ {
		if snap == nil {
			// A resumed iteration restores state instead of resetting it.
			r.ctl.Reset()
			if cfg.Faults != nil {
				cfg.Faults.Reset()
			}
		}
		res, err = r.runOnce(ctx, init, initDVFS, initAmps, ws, prevPeak, snap, guard)
		snap = nil
		if err != nil {
			var tce *TimeCapError
			if errors.As(err, &tce) && res != nil {
				// The cap is an explicit, inspectable error; the partial
				// result rides along for diagnosis.
				res.WarmStarts = ws + 1
				return res, err
			}
			if res != nil {
				// Cancellation: the partial result rides along too.
				res.WarmStarts = ws + 1
				return res, err
			}
			return nil, err
		}
		res.WarmStarts = ws + 1
		if math.Abs(res.Metrics.PeakTemp-prevPeak) < warmStartTol {
			res.Converged = true
			return res, nil
		}
		prevPeak = res.Metrics.PeakTemp
		init = res.FinalTemps
		initDVFS = res.finalDVFS
		initAmps = res.finalAmps
	}
	return res, nil
}

// initialTemps solves the steady state under mean base-scenario power.
func (r *Runner) initialTemps() ([]float64, error) {
	cfg := &r.cfg
	nComp := len(cfg.Chip.Components)
	p := make([]float64, nComp)
	scale := cfg.DVFS.ScaleFromMax(cfg.DVFS.Max())
	for core := 0; core < cfg.Chip.NumCores(); core++ {
		r.powerMap.AddDynPower(core, 0.5, scale, p)
	}
	// One leakage pass at a fixed nominal temperature is close enough for
	// an initial guess; the warm-start loop refines. (Deliberately not tied
	// to the threshold, so identical workloads start identically regardless
	// of T_th.)
	leak := make([]float64, nComp)
	temps := make([]float64, cfg.Network.NumNodes())
	for i := range temps {
		temps[i] = 75
	}
	cfg.Leak.PerComponent(cfg.Chip, temps, power.ModelQuad, leak)
	for i := range p {
		p[i] += leak[i]
	}
	return cfg.Network.Steady(p, cfg.FanLevel, nil)
}

// runOnce simulates one full benchmark execution from the given initial
// temperatures and (optionally) carried-over actuator state, or — when snap
// is non-nil — continues a checkpointed execution from its exact mid-run
// state. ws and prevPeak are the warm-start loop position, recorded into any
// snapshot taken so a resumed run rejoins the loop where it left off.
func (r *Runner) runOnce(ctx context.Context, init []float64, initDVFS []int, initAmps []float64, ws int, prevPeak float64, snap *Snapshot, guard *numguard.Auditor) (*Result, error) {
	s, err := r.newStepLoop(init, initDVFS, initAmps, ws, prevPeak, snap, guard)
	if err != nil {
		return nil, err
	}
	for !s.done() && s.now < s.maxTime {
		if err := s.step(); err != nil {
			return s.partial(), err
		}
		if res, err := s.boundaries(ctx); err != nil {
			return res, err
		}
	}
	res := s.partial()
	res.Completed = s.done()
	if !res.Completed {
		return res, &TimeCapError{Time: s.now, Retired: s.totalDone, Budget: s.bench.TotalInst}
	}
	return res, nil
}

// stepLoop is the complete mutable state of one benchmark execution,
// extracted from runOnce so the per-step kernel is a named hot function the
// allocation analyzers police (DESIGN.md §18): step and stepAttempt are on
// the hot set — their fault-free steady-state path performs zero
// allocations — while the control/fan boundaries, snapshots, and refusal
// paths are cold methods over the same state.
type stepLoop struct {
	r     *Runner
	cfg   *Config
	guard *numguard.Auditor
	bench *workload.Benchmark

	// Warm-start loop position, recorded into snapshots.
	ws       int
	prevPeak float64

	nComp, nCores int

	temps, prevTemps []float64
	dvfs             []int
	ts               *tec.State
	fanLevel         int // the applied level
	// fanReq is the level asked for before any fan fault: the driver's
	// fixed level, or a FanController's latest request. A resumed run
	// takes a FanController's request to be the applied level it was
	// saved with; a fan fault maps either to the same level.
	fanReq int
	tr     *thermal.Transient

	// Completion follows the paper's Eq. (12)/(13) semantics: execution
	// time is inversely proportional to the aggregate chip IPS, i.e. the
	// run ends when the total retired instructions reach the budget (work
	// redistributes across threads), not when the slowest thread crosses a
	// barrier. Per-core progress still drives each core's activity phase.
	progress    []float64 // fraction of per-core budget retired
	instDone    []float64
	instPerCore float64
	totalDone   float64

	acc     perf.Accumulator
	trace   []TracePoint
	now     float64
	stepIdx int

	dyn, leak, total []float64
	// Per-control-period accumulators for the observation. Snapshots are
	// taken only at control boundaries, right after these are zeroed, so a
	// resumed run correctly starts them empty.
	obsDyn, obsIPS, coreIPS []float64

	stepsPerCtl, stepsPerFan int
	maxTime                  float64
	chipPower                float64 // last step's value, for the boundary trace point

	// The reusable boundary observation and its backing buffers; see
	// fillObs for the lifetime contract.
	obs        Observation
	obsTemps   []float64
	obsDVFS    []int
	obsTECOn   []bool
	obsTECAmps []float64
}

// newStepLoop builds the loop state for one execution, either fresh from
// the given initial conditions or restored mid-run from a snapshot.
func (r *Runner) newStepLoop(init []float64, initDVFS []int, initAmps []float64, ws int, prevPeak float64, snap *Snapshot, guard *numguard.Auditor) (*stepLoop, error) {
	cfg := &r.cfg
	chip := cfg.Chip
	s := &stepLoop{
		r: r, cfg: cfg, guard: guard, bench: cfg.Bench,
		ws: ws, prevPeak: prevPeak,
		nComp: len(chip.Components), nCores: chip.NumCores(),
		fanLevel: cfg.FanLevel, fanReq: cfg.FanLevel,
	}
	s.dvfs = make([]int, s.nCores)
	s.progress = make([]float64, s.nCores)
	s.instDone = make([]float64, s.nCores)
	s.instPerCore = s.bench.InstPerCore()

	if snap != nil {
		s.temps = append([]float64(nil), snap.Temps...)
		copy(s.dvfs, snap.DVFS)
		if cfg.TECs != nil {
			s.ts = tec.NewState(cfg.TECs)
			if err := s.ts.RestoreSnapshot(*snap.TEC); err != nil {
				return nil, err
			}
		}
		s.fanLevel = snap.FanLevel
		if _, ok := r.ctl.(FanController); ok {
			s.fanReq = snap.FanLevel
		}
		copy(s.instDone, snap.InstDone)
		s.totalDone = snap.TotalDone
		for core := range s.progress {
			s.progress[core] = s.instDone[core] / s.instPerCore
			if s.progress[core] > 1 {
				s.progress[core] = 1
			}
		}
		s.acc.SetState(snap.Acc)
		if snap.Numeric != nil {
			guard.SetState(*snap.Numeric)
		} else {
			// Pre-numguard checkpoint: align the energy tripwire with the
			// history it did not witness.
			guard.SetState(numguard.State{})
			guard.SeedEnergy(s.acc.Energy)
		}
		s.trace = append(s.trace, snap.Trace...)
		s.now, s.stepIdx = snap.SimTime, snap.StepIdx
	} else {
		guard.BeginIteration()
		s.temps = append([]float64(nil), init...)
		for i := range s.dvfs {
			s.dvfs[i] = cfg.DVFS.Max()
		}
		if initDVFS != nil {
			copy(s.dvfs, initDVFS)
		}
		if cfg.TECs != nil {
			s.ts = tec.NewState(cfg.TECs)
			// Carried-over devices re-engage within the first 20 µs step.
			for l, amps := range initAmps {
				s.ts.SetCurrent(l, amps)
			}
		}
		if cfg.Faults != nil {
			// Persistent actuator faults (a stuck fan, a device failed on)
			// apply from the very first step, not the first control boundary.
			s.fanLevel = cfg.Fan.Clamp(cfg.Faults.FilterFan(0, s.fanLevel))
			dec := Decision{}
			cfg.Faults.FilterDecision(0, r.actuatorState(s.dvfs, s.ts, s.fanLevel), &dec)
			if err := r.applyDecision(dec, s.dvfs, s.ts); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if s.tr, err = cfg.Network.NewTransient(s.fanLevel, cfg.Step); err != nil {
		return nil, err
	}

	s.dyn = make([]float64, s.nComp)
	s.leak = make([]float64, s.nComp)
	s.total = make([]float64, s.nComp)
	s.prevTemps = make([]float64, len(s.temps))
	s.obsDyn = make([]float64, s.nComp)
	s.obsIPS = make([]float64, s.nCores)
	s.coreIPS = make([]float64, s.nCores)

	// Cap generously: the base time stretched by the worst-case frequency
	// ratio, times the safety factor.
	s.maxTime = maxTimeFactor * (s.bench.TargetTimeMS / 1000) / cfg.DVFS.FreqRatio(cfg.DVFS.Max(), 0)

	s.stepsPerCtl = int(math.Round(cfg.ControlPeriod / cfg.Step))
	if s.stepsPerCtl < 1 {
		s.stepsPerCtl = 1
	}
	s.stepsPerFan = int(math.Round(cfg.FanPeriod / cfg.Step))
	return s, nil
}

// done reports whether the chip-wide instruction budget is retired.
func (s *stepLoop) done() bool { return s.totalDone >= s.bench.TotalInst }

// snapshot captures the complete loop state at the current (control
// boundary) position.
func (s *stepLoop) snapshot() (*Snapshot, error) {
	snap := &Snapshot{
		SimTime:   s.now,
		StepIdx:   s.stepIdx,
		WarmStart: s.ws,
		PrevPeak:  s.prevPeak,
		Temps:     append([]float64(nil), s.temps...),
		DVFS:      append([]int(nil), s.dvfs...),
		FanLevel:  s.fanLevel,
		InstDone:  append([]float64(nil), s.instDone...),
		TotalDone: s.totalDone,
		Acc:       s.acc.State(),
		Trace:     append([]TracePoint(nil), s.trace...),
	}
	ns := s.guard.State()
	snap.Numeric = &ns
	if s.ts != nil {
		tsnap := s.ts.Snapshot()
		snap.TEC = &tsnap
	}
	var err error
	if snap.Controller, err = marshalCodec("controller", s.r.ctl); err != nil {
		return nil, err
	}
	if snap.Faults, err = marshalCodec("faults", s.cfg.Faults); err != nil {
		return nil, err
	}
	return snap, nil
}

// partial builds the result carrying whatever finite metrics accumulated
// so far plus the numeric health block — used on cancellation, on a
// refused divergence, and (with Completed filled in) at the end.
func (s *stepLoop) partial() *Result {
	res := &Result{
		Metrics:    s.acc.Snapshot(),
		Trace:      s.trace,
		FinalTemps: s.temps,
		Completed:  false,
		Numeric:    s.guard.Health(),
		finalDVFS:  append([]int(nil), s.dvfs...),
	}
	if s.ts != nil {
		res.finalAmps = s.ts.Currents()
	}
	return res
}

// confirm records a confirmed divergence with the actuator configuration
// filled in, then either escalates it into the controller's sticky
// fail-safe (NumericEscalator) or returns the refusal error for
// controllers that cannot absorb it.
func (s *stepLoop) confirm(v *numguard.Violation) error {
	v.FanLevel = s.fanLevel
	if s.ts != nil {
		v.TECsOn = s.ts.CountOn()
	}
	s.guard.Confirm(v)
	if esc, ok := s.r.ctl.(NumericEscalator); ok {
		if !s.guard.State().FailSafe {
			s.guard.SetFailSafe()
			esc.EscalateNumeric(*v)
		}
		return nil
	}
	return &DivergenceError{V: *v}
}

// stepAttempt integrates one thermal step from prevTemps and audits the
// outcome. tr.Step writes temps only on success, and a retry re-runs with
// bit-identical inputs, so a transient upset recovers byte-identically to
// the fault-free execution.
func (s *stepLoop) stepAttempt(retry bool) *numguard.Violation {
	copy(s.temps, s.prevTemps)
	if stepErr := s.tr.Step(s.temps, s.total, s.ts); stepErr != nil {
		//lint:tecfan-ignore allocfree -- solver-refusal path: builds the violation at most once per refused step
		return &numguard.Violation{Kind: numguard.KindSolverResidual, Step: s.stepIdx, Time: s.now, Node: -1, Detail: stepErr.Error()} //lint:tecfan-ignore hotcall -- refusal path: stringifies the solver error once
	}
	if s.cfg.NumFaults != nil {
		s.cfg.NumFaults.CorruptTemps(s.stepIdx, retry, s.temps)
	}
	return s.guard.CheckTemps(s.stepIdx, s.now, s.temps)
}

// step advances the simulation one thermal step: power evaluation, the
// audited integration, instruction progress, metrics, and observation
// accumulation. It is the control loop's per-step kernel — the fault-free
// steady-state path performs zero allocations (TestStepZeroAllocs proves
// it; the analyzers and the bench gate keep it true).
func (s *stepLoop) step() error {
	cfg := s.cfg
	// Power evaluation at the current state.
	for i := range s.dyn {
		s.dyn[i] = 0
	}
	for core := 0; core < s.nCores; core++ {
		scale := cfg.DVFS.ScaleFromMax(s.dvfs[core])
		s.r.powerMap.AddDynPower(core, s.progress[core], scale, s.dyn)
	}
	cfg.Leak.PerComponent(cfg.Chip, s.temps, power.ModelQuad, s.leak)
	for i := range s.total {
		s.total[i] = s.dyn[i] + s.leak[i]
	}
	if cfg.NumFaults != nil {
		cfg.NumFaults.CorruptPower(s.stepIdx, false, s.total)
	}
	if v := s.guard.CheckPowerVec(s.stepIdx, s.now, s.total); v != nil {
		// Step fallback: rebuild the vector from its inputs. A transient
		// upset vanishes; a persistent fault re-fires and is a confirmed
		// divergence — the run then continues on the clean rebuild.
		for i := range s.total {
			s.total[i] = s.dyn[i] + s.leak[i]
		}
		if cfg.NumFaults != nil {
			cfg.NumFaults.CorruptPower(s.stepIdx, true, s.total)
		}
		if v2 := s.guard.CheckPowerVec(s.stepIdx, s.now, s.total); v2 != nil {
			for i := range s.total {
				s.total[i] = s.dyn[i] + s.leak[i]
			}
			s.guard.NoteHeld()
			if err := s.confirm(v2); err != nil { //lint:tecfan-ignore hotcall -- confirmed-divergence path: runs at most once per confirmed fault
				return err
			}
		} else {
			s.guard.NoteRecovered()
		}
	}

	// Thermal step, audited: a violation (solver refusal, non-finite or
	// out-of-envelope temperature) is retried once with identical inputs;
	// a second violation holds the last good temperature state and
	// confirms the divergence.
	if s.ts != nil {
		s.ts.Advance(s.now)
	}
	copy(s.prevTemps, s.temps)
	if v := s.stepAttempt(false); v != nil {
		if v2 := s.stepAttempt(true); v2 != nil {
			copy(s.temps, s.prevTemps)
			s.guard.NoteHeld()
			if err := s.confirm(v2); err != nil { //lint:tecfan-ignore hotcall -- confirmed-divergence path: runs at most once per confirmed fault
				return err
			}
		} else {
			s.guard.NoteRecovered()
		}
	}
	s.guard.AddRefinements(s.tr.TakeRefinements())

	// Instruction progress at the current frequencies. Every active
	// core retires work until the chip-wide budget completes.
	for _, core := range s.bench.ActiveCores {
		fr := cfg.DVFS.FreqRatio(cfg.DVFS.Max(), s.dvfs[core])
		ips := s.bench.IPS(core, s.progress[core]) * fr
		s.coreIPS[core] = ips
		s.instDone[core] += ips * cfg.Step
		s.totalDone += ips * cfg.Step
		s.progress[core] = s.instDone[core] / s.instPerCore
		if s.progress[core] > 1 {
			s.progress[core] = 1
		}
	}

	// Metrics.
	var dynSum, ipsSum float64
	for _, v := range s.total {
		dynSum += v
	}
	for _, v := range s.coreIPS {
		ipsSum += v
	}
	tecPower := cfg.Network.TECPower(s.temps, s.ts)
	chipPower := dynSum + tecPower + cfg.Fan.Power(s.fanLevel)
	_, peak := cfg.Network.PeakDie(s.temps)
	// The temperature audit above guarantees a finite field, so a
	// non-finite peak would mean the auditor itself is broken: refuse
	// loudly rather than feed it to perf.Metrics.
	if !floats.Finite(peak) {
		//lint:tecfan-ignore allocfree -- auditor-breach refusal: formats the diagnosis at most once per run
		return fmt.Errorf("sim: non-finite peak temperature %s out of the integrator at t=%.4gs", linalg.SafeFloat(peak), s.now) //lint:tecfan-ignore hotcall -- refusal path: fmt and SafeFloat run at most once per run
	}
	if v := s.guard.CheckChipPower(s.stepIdx, s.now, chipPower); v != nil {
		// Chip power is an output-side aggregate with no second
		// computation path to retry: hold zero for this step so the
		// accumulator stays finite, and confirm.
		s.guard.NoteHeld()
		if err := s.confirm(v); err != nil { //lint:tecfan-ignore hotcall -- confirmed-divergence path: runs at most once per confirmed fault
			return err
		}
		chipPower = 0
	}
	s.acc.Add(cfg.Step, chipPower, ipsSum, peak, cfg.Threshold)
	s.guard.AddEnergy(cfg.Step, chipPower)
	s.chipPower = chipPower

	// Observation accumulation.
	for i := range s.obsDyn {
		s.obsDyn[i] += s.dyn[i] / float64(s.stepsPerCtl)
	}
	for i := range s.obsIPS {
		s.obsIPS[i] += s.coreIPS[i] / float64(s.stepsPerCtl)
	}

	s.now += cfg.Step
	s.stepIdx++
	return nil
}

// fillObs populates the reusable boundary observation from the live state.
// The slices are copies (a fault model may corrupt them freely without
// touching the simulation), but the backing buffers are REUSED across
// boundaries: an Observation is valid only for the duration of the
// controller call it is handed to, and controllers that retain
// measurements across periods must deep-copy them (core.Controller does).
// withPower selects the lower-level form carrying the per-period power and
// IPS accumulators; the fan-boundary form leaves DynPower/CoreIPS nil,
// which is how consumers tell the two apart.
func (s *stepLoop) fillObs(withPower bool) *Observation {
	o := &s.obs
	s.obsTemps = append(s.obsTemps[:0], s.temps...)
	s.obsDVFS = append(s.obsDVFS[:0], s.dvfs...)
	o.Time = s.now
	o.Temps = s.obsTemps
	o.DVFS = s.obsDVFS
	o.FanLevel = s.fanLevel
	o.Threshold = s.cfg.Threshold
	o.DynPower, o.CoreIPS = nil, nil
	if withPower {
		o.DynPower, o.CoreIPS = s.obsDyn, s.obsIPS
	}
	o.TECOn, o.TECAmps = nil, nil
	if s.ts != nil {
		s.obsTECOn = s.ts.OnMaskInto(s.obsTECOn)
		s.obsTECAmps = s.ts.CurrentsInto(s.obsTECAmps)
		o.TECOn, o.TECAmps = s.obsTECOn, s.obsTECAmps
	}
	return o
}

// setFan applies fan level req, clamped to the fan's range, and refactors
// the transient when the level changes.
func (s *stepLoop) setFan(req int) error {
	nl := s.cfg.Fan.Clamp(req)
	if nl == s.fanLevel {
		return nil
	}
	s.fanLevel = nl
	var err error
	s.tr, err = s.cfg.Network.NewTransient(nl, s.cfg.Step)
	return err
}

// boundaries runs the control, fan, and checkpoint work due after the step
// that just completed. A non-nil error aborts the run; the accompanying
// result — nil for plumbing failures, a partial result for refusals — is
// exactly what runOnce should hand back.
func (s *stepLoop) boundaries(ctx context.Context) (*Result, error) {
	cfg, r := s.cfg, s.r

	// Lower-level control boundary.
	if s.stepIdx%s.stepsPerCtl == 0 {
		obs := s.fillObs(true)
		if cfg.Faults != nil {
			cfg.Faults.Observe(obs)
		}
		dec := r.ctl.Control(obs)
		if cfg.Faults != nil {
			cfg.Faults.FilterDecision(s.now, r.actuatorState(s.dvfs, s.ts, s.fanLevel), &dec)
		}
		if err := r.applyDecision(dec, s.dvfs, s.ts); err != nil {
			return nil, err
		}
		// A fan fault acts on the fan whatever drives it: it is applied
		// here for every policy, not only at a FanController's boundary.
		if cfg.Faults != nil {
			if err := s.setFan(cfg.Faults.FilterFan(s.now, s.fanReq)); err != nil {
				return nil, err
			}
		}
		// Boundary audits: the metrics energy against the independent
		// ∫power·dt integral, and the applied actuator configuration
		// against its hardware ranges.
		if v := s.guard.CheckEnergy(s.stepIdx, s.now, s.acc.Energy); v != nil {
			if err := s.confirm(v); err != nil {
				return s.partial(), err
			}
		}
		if v := s.guard.CheckActuators(s.stepIdx, s.now, s.fanLevel, cfg.Fan.NumLevels()-1, s.dvfs, cfg.DVFS.Max()); v != nil {
			if err := s.confirm(v); err != nil {
				return s.partial(), err
			}
		}
		if cfg.RecordTrace {
			pc, pt := cfg.Network.PeakDie(s.temps)
			var md float64
			for _, l := range s.dvfs {
				md += float64(l)
			}
			nOn := 0
			if s.ts != nil {
				nOn = s.ts.CountOn()
			}
			s.trace = append(s.trace, TracePoint{
				Time: s.now, PeakTemp: pt, PeakComp: pc, ChipPower: s.chipPower,
				FanLevel: s.fanLevel, TECsOn: nOn, MeanDVFS: md / float64(s.nCores),
			})
		}
		for i := range s.obsDyn {
			s.obsDyn[i] = 0
		}
		for i := range s.obsIPS {
			s.obsIPS[i] = 0
		}
	}

	// Higher-level fan boundary.
	if fc, ok := r.ctl.(FanController); ok && s.stepsPerFan > 0 && s.stepIdx%s.stepsPerFan == 0 {
		obs := s.fillObs(false)
		if cfg.Faults != nil {
			cfg.Faults.Observe(obs)
		}
		req := fc.FanControl(obs)
		s.fanReq = req
		if cfg.Faults != nil {
			req = cfg.Faults.FilterFan(s.now, req)
		}
		if err := s.setFan(req); err != nil {
			return nil, err
		}
	}

	// Cancellation and checkpointing, at control boundaries only: this
	// bounds the response to a cancel at one control period, and places
	// every snapshot right after the observation accumulators were
	// zeroed, so a resumed run restarts them empty — bitwise-identical
	// to the uninterrupted execution.
	if s.stepIdx%s.stepsPerCtl == 0 {
		if err := ctx.Err(); err != nil {
			if cfg.OnCheckpoint != nil {
				if snap, serr := s.snapshot(); serr == nil {
					_ = cfg.OnCheckpoint(snap) // best effort on the way out
				}
			}
			return s.partial(), fmt.Errorf("sim: canceled at t=%.4gs: %w", s.now, err)
		}
		if cfg.CheckpointEvery > 0 && cfg.OnCheckpoint != nil &&
			(s.stepIdx/s.stepsPerCtl)%cfg.CheckpointEvery == 0 {
			snap, err := s.snapshot()
			if err != nil {
				return nil, err
			}
			if err := cfg.OnCheckpoint(snap); err != nil {
				return nil, fmt.Errorf("sim: checkpoint at t=%.4gs: %w", s.now, err)
			}
		}
	}
	return nil, nil
}

// actuatorState snapshots the currently applied actuator configuration for
// Faults.FilterDecision.
func (r *Runner) actuatorState(dvfs []int, ts *tec.State, fanLevel int) ActuatorState {
	st := ActuatorState{
		DVFS:     append([]int(nil), dvfs...),
		FanLevel: fanLevel,
	}
	if ts != nil {
		st.TECAmps = ts.Currents()
	}
	return st
}

// applyDecision validates and applies a (possibly fault-filtered) decision
// to the live actuator state.
func (r *Runner) applyDecision(dec Decision, dvfs []int, ts *tec.State) error {
	cfg := &r.cfg
	if dec.DVFS != nil {
		if len(dec.DVFS) != len(dvfs) {
			return fmt.Errorf("sim: controller returned %d DVFS levels", len(dec.DVFS))
		}
		for i, l := range dec.DVFS {
			dvfs[i] = cfg.DVFS.Clamp(l)
		}
	}
	if ts != nil {
		switch {
		case dec.TECAmps != nil:
			if len(dec.TECAmps) != ts.Len() {
				return fmt.Errorf("sim: controller returned %d TEC currents", len(dec.TECAmps))
			}
			for l, amps := range dec.TECAmps {
				ts.SetCurrent(l, amps)
			}
		case dec.TECOn != nil:
			ts.SetMask(dec.TECOn)
		}
	}
	return nil
}
