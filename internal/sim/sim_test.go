package sim

import (
	"errors"
	"math"
	"testing"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/power"
	"tecfan/internal/tec"
	"tecfan/internal/thermal"
	"tecfan/internal/workload"
)

// testBench builds a small 4-core benchmark for the quad chip: 2 ms of work
// per core at max DVFS, moderate power.
func testBench(coreDyn float64) *workload.Benchmark {
	return &workload.Benchmark{
		Name:         "ut",
		Threads:      4,
		TotalInst:    4 * 2e6, // 2 ms per core at 1 GIPS
		ActiveCores:  []int{0, 1, 2, 3},
		Weights:      workload.WeightsFromDensity(workload.DensityMults{Logic: 1, Array: 1, Wire: 1, VR: 1}),
		CoreDyn:      coreDyn,
		IdleDyn:      0.3,
		BaseIPS:      1e9,
		Phases:       []workload.Phase{{Frac: 1, Activity: 1}},
		TargetTimeMS: 2.0,
	}
}

type env struct {
	chip *floorplan.Chip
	fm   *fan.Model
	nw   *thermal.Network
	tbl  *power.DVFSTable
	leak power.Leakage
	arr  []tec.Placement
}

func newEnv() *env {
	chip := floorplan.NewQuad()
	fm := fan.DynatronR16()
	return &env{
		chip: chip,
		fm:   fm,
		nw:   thermal.NewNetwork(chip, fm, thermal.DefaultParams()),
		tbl:  power.SCCTable(),
		leak: power.DefaultLeakage(),
		arr:  tec.Array(chip, tec.DefaultDevice()),
	}
}

func (e *env) config(b *workload.Benchmark, threshold float64) Config {
	return Config{
		Chip: e.chip, Fan: e.fm, Network: e.nw, DVFS: e.tbl, Leak: e.leak,
		TECs: e.arr, Bench: b, Threshold: threshold,
		FanLevel: 1, Step: 100e-6, ControlPeriod: 500e-6,
	}
}

// noop is a controller that does nothing (Fan-only semantics).
type noop struct{ calls int }

func (n *noop) Name() string                  { return "noop" }
func (n *noop) Control(*Observation) Decision { n.calls++; return Decision{} }
func (n *noop) Reset()                        {}

// throttler pins every core to the lowest DVFS level.
type throttler struct{}

func (throttler) Name() string { return "throttler" }
func (throttler) Control(obs *Observation) Decision {
	d := make([]int, len(obs.DVFS))
	return Decision{DVFS: d}
}
func (throttler) Reset() {}

// tecAll turns every TEC on at the first opportunity.
type tecAll struct{}

func (tecAll) Name() string { return "tecAll" }
func (tecAll) Control(obs *Observation) Decision {
	on := make([]bool, len(obs.TECOn))
	for i := range on {
		on[i] = true
	}
	return Decision{TECOn: on}
}
func (tecAll) Reset() {}

func TestRunCompletesOnTime(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	r, err := NewRunner(e.config(b, 120), &noop{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	// At max DVFS and constant activity, execution time ≈ TotalInst/(4·IPS);
	// the jitterless IPS here is BaseIPS·(0.85+0.15·1) = BaseIPS.
	want := 2e-3
	if math.Abs(res.Metrics.Time-want)/want > 0.05 {
		t.Fatalf("time %.4g s, want ≈ %.4g", res.Metrics.Time, want)
	}
	if res.Metrics.Energy <= 0 || res.Metrics.AvgPower <= 0 {
		t.Fatalf("bad metrics %+v", res.Metrics)
	}
	// Fan power at level 1 alone is 3.8 W; chip adds more.
	if res.Metrics.AvgPower < e.fm.Power(1) {
		t.Fatalf("avg power %.2f below fan floor", res.Metrics.AvgPower)
	}
	if res.Metrics.ViolationRatio != 0 {
		t.Fatalf("violations at a 120 °C threshold: %v", res.Metrics.ViolationRatio)
	}
}

func TestThrottlingDoublesTime(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	rFast, _ := NewRunner(e.config(b, 120), &noop{})
	fast, err := rFast.Run()
	if err != nil {
		t.Fatal(err)
	}
	rSlow, _ := NewRunner(e.config(b, 120), throttler{})
	slow, err := rSlow.Run()
	if err != nil {
		t.Fatal(err)
	}
	ratio := slow.Metrics.Time / fast.Metrics.Time
	// Lowest level halves the frequency: expect ≈ 2× (first control period
	// still runs at max).
	if ratio < 1.6 || ratio > 2.2 {
		t.Fatalf("throttled/normal time ratio %.2f, want ≈ 2", ratio)
	}
	if slow.Metrics.AvgPower >= fast.Metrics.AvgPower {
		t.Fatal("throttling must cut average power")
	}
}

func TestTECControllerLowersPeak(t *testing.T) {
	e := newEnv()
	b := testBench(5.0) // hot
	// Concentrate power under the TEC array: a uniform-density workload
	// peaks on the (uncovered) L2 block, which TECs cannot reach.
	b.Weights = workload.WeightsFromDensity(workload.DensityMults{
		Logic: 1.5, Array: 0.7, Wire: 0.8, VR: 0.45,
		Overrides: map[string]float64{"FPMul": 6.0, "IntExec": 4.0},
	})
	rOff, _ := NewRunner(e.config(b, 200), &noop{})
	off, err := rOff.Run()
	if err != nil {
		t.Fatal(err)
	}
	rOn, _ := NewRunner(e.config(b, 200), tecAll{})
	on, err := rOn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if on.Metrics.PeakTemp >= off.Metrics.PeakTemp {
		t.Fatalf("TECs did not lower peak: %.2f vs %.2f", on.Metrics.PeakTemp, off.Metrics.PeakTemp)
	}
	// TEC electrical power must show up in the chip energy.
	if on.Metrics.AvgPower <= off.Metrics.AvgPower {
		t.Fatal("36 powered TECs should raise chip power")
	}
}

func TestViolationAccounting(t *testing.T) {
	e := newEnv()
	b := testBench(5.0)
	r, _ := NewRunner(e.config(b, 50), &noop{}) // threshold far below reality
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ViolationRatio < 0.9 {
		t.Fatalf("violation ratio %.2f, expected ~1 with a 50 °C threshold", res.Metrics.ViolationRatio)
	}
}

func TestTraceRecording(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	cfg := e.config(b, 120)
	cfg.RecordTrace = true
	r, _ := NewRunner(cfg, &noop{})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	// Control period 500 µs over ~2 ms → ≈4 points; times increasing.
	prev := 0.0
	for _, p := range res.Trace {
		if p.Time <= prev {
			t.Fatalf("trace times not increasing: %v after %v", p.Time, prev)
		}
		prev = p.Time
		if p.PeakTemp < 45 || p.ChipPower <= 0 || p.FanLevel != 1 {
			t.Fatalf("bad trace point %+v", p)
		}
	}
}

func TestControllerCalledEveryPeriod(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	cfg := e.config(b, 120)
	cfg.MaxWarmStarts = 1
	n := &noop{}
	r, _ := NewRunner(cfg, n)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// ~2 ms at 500 µs period → ≈4 calls.
	if n.calls < 3 || n.calls > 6 {
		t.Fatalf("controller called %d times, want ≈4", n.calls)
	}
}

func TestWarmStartConverges(t *testing.T) {
	e := newEnv()
	b := testBench(3.0)
	r, _ := NewRunner(e.config(b, 120), &noop{})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStarts < 1 || res.WarmStarts > 5 {
		t.Fatalf("warm starts = %d", res.WarmStarts)
	}
}

func TestConfigValidation(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	if _, err := NewRunner(Config{}, &noop{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := e.config(b, 0)
	if _, err := NewRunner(cfg, &noop{}); err == nil {
		t.Fatal("zero threshold accepted")
	}
	cfg = e.config(b, 100)
	cfg.FanLevel = 9
	if _, err := NewRunner(cfg, &noop{}); err == nil {
		t.Fatal("bad fan level accepted")
	}
	cfg = e.config(b, 100)
	if _, err := NewRunner(cfg, nil); err == nil {
		t.Fatal("nil controller accepted")
	}
}

// badController returns a malformed DVFS vector.
type badController struct{}

func (badController) Name() string                  { return "bad" }
func (badController) Control(*Observation) Decision { return Decision{DVFS: []int{1}} }
func (badController) Reset()                        {}

func TestMalformedDecision(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	r, _ := NewRunner(e.config(b, 120), badController{})
	if _, err := r.Run(); err == nil {
		t.Fatal("malformed DVFS decision accepted")
	}
}

func TestIdleCoresBurnIdlePower(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	b.ActiveCores = []int{0} // single-threaded
	b.TotalInst = 2e6
	r, _ := NewRunner(e.config(b, 120), &noop{})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	// Chip power ≈ 1 active core + 3 idle + leak + fan: well below the
	// 4-active case but above fan + leakage alone.
	full := testBench(2.0)
	rf, _ := NewRunner(e.config(full, 120), &noop{})
	fres, _ := rf.Run()
	if res.Metrics.AvgPower >= fres.Metrics.AvgPower {
		t.Fatal("1-thread run should draw less power than 4-thread run")
	}
}

// Two identical runs must produce bit-identical metrics: the whole stack —
// trace jitter, thermal solves, controller decisions — is deterministic.
func TestRunDeterministic(t *testing.T) {
	e := newEnv()
	run := func() Result {
		b := testBench(4.0)
		b.JitterAmp = 0.05
		b.Seed = 42
		r, err := NewRunner(e.config(b, 120), tecAll{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return *res
	}
	a, b := run(), run()
	if a.Metrics != b.Metrics {
		t.Fatalf("nondeterministic metrics:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if a.WarmStarts != b.WarmStarts {
		t.Fatalf("warm starts differ: %d vs %d", a.WarmStarts, b.WarmStarts)
	}
}

// The controller must not be able to corrupt the simulation by mutating
// the observation it receives.
type mutator struct{}

func (mutator) Name() string { return "mutator" }
func (mutator) Control(obs *Observation) Decision {
	// Scribble over every observed slice, including the temperatures.
	for i := range obs.DynPower {
		obs.DynPower[i] = -1e9
	}
	for i := range obs.CoreIPS {
		obs.CoreIPS[i] = -1e9
	}
	for i := range obs.Temps {
		obs.Temps[i] = 1e9
	}
	for i := range obs.DVFS {
		obs.DVFS[i] = -5
	}
	return Decision{}
}
func (mutator) Reset() {}

func TestObservationMutationIsHarmless(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	r1, _ := NewRunner(e.config(b, 120), &noop{})
	clean, err := r1.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRunner(e.config(b, 120), mutator{})
	dirty, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Observations are copies; energy accounting must be unaffected by
	// controller scribbling.
	if math.Abs(clean.Metrics.Energy-dirty.Metrics.Energy)/clean.Metrics.Energy > 1e-9 {
		t.Fatalf("controller mutation changed energy: %v vs %v", clean.Metrics.Energy, dirty.Metrics.Energy)
	}
}

// A deliberately livelocked run (a benchmark whose nominal time understates
// its work tenfold, so the cap falls below even the full-speed runtime,
// stands in for a controller that never lets the workload finish) must hit
// the time cap and report it as an explicit *TimeCapError, never as silent
// truncation.
func TestMaxTimeFactorCap(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	b.TargetTimeMS = 0.2 // the work takes 2 ms at full speed
	cfg := e.config(b, 120)
	cfg.MaxWarmStarts = 1
	r, _ := NewRunner(cfg, &noop{})
	res, err := r.Run()
	if err == nil {
		t.Fatal("capped run returned no error")
	}
	var tce *TimeCapError
	if !errors.As(err, &tce) {
		t.Fatalf("cap surfaced as %T (%v), want *TimeCapError", err, err)
	}
	if tce.Retired >= tce.Budget {
		t.Fatalf("cap error claims completion: %+v", tce)
	}
	if res == nil {
		t.Fatal("no partial result alongside the cap error")
	}
	if res.Completed {
		t.Fatal("capped run reported completion")
	}
	if res.Metrics.Time <= 0 {
		t.Fatal("no time accumulated before the cap")
	}
}

// flipFlop behaves differently on alternate warm-start iterations (it counts
// Reset calls), so consecutive peak temperatures never settle and the
// warm-start loop cannot converge.
type flipFlop struct{ resets int }

func (f *flipFlop) Name() string { return "flipFlop" }
func (f *flipFlop) Reset()       { f.resets++ }
func (f *flipFlop) Control(obs *Observation) Decision {
	if f.resets%2 == 0 {
		return Decision{}
	}
	d := make([]int, len(obs.DVFS))
	return Decision{DVFS: d}
}

// Warm-start must stop at MaxWarmStarts without convergence and say so.
func TestWarmStartNonConvergence(t *testing.T) {
	e := newEnv()
	b := testBench(3.0)
	// Ten times the work: long enough that the flip-flop's throttled and
	// full-speed iterations peak more than the 0.5 °C tolerance apart.
	b.TotalInst *= 10
	b.TargetTimeMS *= 10
	cfg := e.config(b, 120)
	cfg.MaxWarmStarts = 3
	r, _ := NewRunner(cfg, &flipFlop{resets: -1})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("oscillating controller reported warm-start convergence")
	}
	if res.WarmStarts != cfg.MaxWarmStarts {
		t.Fatalf("stopped after %d warm starts, want %d", res.WarmStarts, cfg.MaxWarmStarts)
	}
	// A stable controller on the same setup must converge and say so.
	r2, _ := NewRunner(e.config(b, 120), &noop{})
	res2, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatal("stable run did not report convergence")
	}
}

// recordingSensors counts observations and scribbles a marker temperature.
type recordingSensors struct {
	calls  int
	resets int
}

func (s *recordingSensors) Observe(obs *Observation) {
	s.calls++
	obs.Temps[0] = 33.25
}
func (s *recordingSensors) FilterDecision(float64, ActuatorState, *Decision) {}
func (s *recordingSensors) FilterFan(now float64, level int) int             { return level }
func (s *recordingSensors) Reset()                                           { s.resets++ }

// markerReader verifies the controller sees the sensor model's output.
type markerReader struct{ sawMarker bool }

func (m *markerReader) Name() string { return "markerReader" }
func (m *markerReader) Reset()       {}
func (m *markerReader) Control(obs *Observation) Decision {
	if obs.Temps[0] == 33.25 {
		m.sawMarker = true
	}
	return Decision{}
}

func TestSensorModelInterceptsObservations(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	cfg := e.config(b, 120)
	s := &recordingSensors{}
	cfg.Faults = s
	mr := &markerReader{}
	r, _ := NewRunner(cfg, mr)
	clean, errClean := NewRunner(e.config(b, 120), &noop{})
	if errClean != nil {
		t.Fatal(errClean)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.calls == 0 || s.resets == 0 {
		t.Fatalf("sensor model not driven: %d calls, %d resets", s.calls, s.resets)
	}
	if !mr.sawMarker {
		t.Fatal("controller never saw the corrupted observation")
	}
	// Corruption must not leak into the physical run.
	cres, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Metrics.Energy-cres.Metrics.Energy)/cres.Metrics.Energy > 1e-9 {
		t.Fatalf("sensor corruption changed physical energy: %v vs %v",
			res.Metrics.Energy, cres.Metrics.Energy)
	}
}

// vetoActuators drops every DVFS request and forces all TECs off.
type vetoActuators struct{ filtered int }

func (a *vetoActuators) FilterDecision(now float64, cur ActuatorState, dec *Decision) {
	a.filtered++
	dec.DVFS = nil
	if dec.TECAmps != nil {
		for i := range dec.TECAmps {
			dec.TECAmps[i] = 0
		}
	}
	if dec.TECOn != nil {
		for i := range dec.TECOn {
			dec.TECOn[i] = false
		}
	}
}
func (a *vetoActuators) Observe(*Observation)                 {}
func (a *vetoActuators) FilterFan(now float64, level int) int { return level }
func (a *vetoActuators) Reset()                               {}

func TestActuatorModelVetoesDecisions(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	cfg := e.config(b, 120)
	va := &vetoActuators{}
	cfg.Faults = va
	// The throttler asks for minimum DVFS every period; with requests
	// dropped the run must finish at full speed.
	r, _ := NewRunner(cfg, throttler{})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if va.filtered == 0 {
		t.Fatal("actuator model never consulted")
	}
	rFast, _ := NewRunner(e.config(b, 120), &noop{})
	fast, err := rFast.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Metrics.Time-fast.Metrics.Time)/fast.Metrics.Time > 0.05 {
		t.Fatalf("vetoed throttler ran in %.4gs, full-speed run %.4gs",
			res.Metrics.Time, fast.Metrics.Time)
	}
}

// stuckFan pins the physical fan to one level regardless of requests.
type stuckFan struct{ level int }

func (s stuckFan) Observe(*Observation)                                         {}
func (s stuckFan) FilterDecision(now float64, cur ActuatorState, dec *Decision) {}
func (s stuckFan) FilterFan(now float64, level int) int                         { return s.level }
func (s stuckFan) Reset()                                                       {}

func TestActuatorModelSticksFan(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	cfg := e.config(b, 120)
	cfg.FanPeriod = 500e-6
	cfg.RecordTrace = true
	cfg.MaxWarmStarts = 1
	cfg.Faults = stuckFan{level: 4}
	fs := &fanStepper{}
	r, _ := NewRunner(cfg, fs)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fs.calls == 0 {
		t.Fatal("FanControl never invoked")
	}
	last := res.Trace[len(res.Trace)-1]
	if last.FanLevel != 4 {
		t.Fatalf("stuck fan ended at level %d, want 4", last.FanLevel)
	}
}

// lateStuckFan sticks the physical fan at level from time start on, as a
// mid-run fan-stuck fault does.
type lateStuckFan struct {
	start float64
	level int
}

func (f lateStuckFan) Observe(*Observation)                             {}
func (f lateStuckFan) FilterDecision(float64, ActuatorState, *Decision) {}
func (f lateStuckFan) Reset()                                           {}
func (f lateStuckFan) FilterFan(now float64, level int) int {
	if now < f.start {
		return level
	}
	return f.level
}

// A fan fault that starts mid-run reaches a controller that never drives
// the fan (Fan-only semantics): the run is the fault-free one up to the
// fault, and from the first control boundary at or after it the fan runs
// at the stuck level, its integrator refactored, so the chip heats up.
func TestMidRunFanFaultReachesFixedFanRun(t *testing.T) {
	e := newEnv()
	cfg := e.config(testBench(6.0), 120)
	cfg.RecordTrace = true
	cfg.MaxWarmStarts = 1
	base, err := func() (*Result, error) { r, _ := NewRunner(cfg, &noop{}); return r.Run() }()
	if err != nil {
		t.Fatal(err)
	}
	const start = 0.8e-3
	stuck := e.fm.NumLevels() - 1
	cfg.Faults = lateStuckFan{start: start, level: stuck}
	r, _ := NewRunner(cfg, &noop{})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != len(base.Trace) {
		t.Fatalf("%d trace points, fault-free run %d", len(res.Trace), len(base.Trace))
	}
	hotter := false
	for k, p := range res.Trace {
		b := base.Trace[k]
		switch {
		case p.Time < start:
			if p != b {
				t.Fatalf("t=%g, before the fault: %+v, fault-free %+v", p.Time, p, b)
			}
		case p.FanLevel != stuck || b.FanLevel != cfg.FanLevel:
			t.Fatalf("t=%g, after the fault: fan level %d (fault-free %d), want %d", p.Time, p.FanLevel, b.FanLevel, stuck)
		case p.PeakTemp > b.PeakTemp:
			hotter = true
		}
	}
	if !hotter {
		t.Fatal("the stuck fan never raised the peak temperature")
	}
	if res.Trace[len(res.Trace)-1].Time < start {
		t.Fatal("the run ended before the fault; the case checks nothing")
	}
}

// fanStepper implements FanController and asks for one level slower at
// every fan boundary; the sim must apply it and refactor the integrator.
type fanStepper struct{ calls int }

func (f *fanStepper) Name() string                  { return "fanStepper" }
func (f *fanStepper) Control(*Observation) Decision { return Decision{} }
func (f *fanStepper) Reset()                        {}
func (f *fanStepper) FanControl(obs *Observation) int {
	f.calls++
	return obs.FanLevel + 1
}

func TestFanControllerInvoked(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	cfg := e.config(b, 120)
	cfg.FanPeriod = 500e-6 // fire several times within the 2 ms run
	cfg.RecordTrace = true
	cfg.MaxWarmStarts = 1
	fs := &fanStepper{}
	r, _ := NewRunner(cfg, fs)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fs.calls == 0 {
		t.Fatal("FanControl never invoked")
	}
	// The trace must show the fan slowing over the run.
	last := res.Trace[len(res.Trace)-1]
	if last.FanLevel <= cfg.FanLevel {
		t.Fatalf("fan level did not move: %d", last.FanLevel)
	}
}

func TestDecisionCurrentValidation(t *testing.T) {
	e := newEnv()
	b := testBench(2.0)
	r, _ := NewRunner(e.config(b, 120), badAmps{})
	if _, err := r.Run(); err == nil {
		t.Fatal("malformed TEC current vector accepted")
	}
}

type badAmps struct{}

func (badAmps) Name() string { return "badAmps" }
func (badAmps) Control(*Observation) Decision {
	return Decision{TECAmps: []float64{6}}
}
func (badAmps) Reset() {}
