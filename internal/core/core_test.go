package core

import (
	"math"
	"testing"

	"tecfan/internal/power"
	"tecfan/internal/sim"
	"tecfan/internal/tec"
	"tecfan/internal/testenv"
	"tecfan/internal/workload"
)

// obsFor builds a plausible observation for the environment: temps from a
// steady solve, measured dyn power from the benchmark at max DVFS.
func obsFor(t *testing.T, e *testenv.Env, b *workload.Benchmark, threshold float64, fanLevel int) *sim.Observation {
	t.Helper()
	nComp := len(e.Chip.Components)
	dyn := make([]float64, nComp)
	for core := 0; core < e.Chip.NumCores(); core++ {
		b.PowerMap(e.Chip).AddDynPower(core, 0.5, 1.0, dyn)
	}
	// Temperatures include leakage (refined over two passes) so the
	// estimator's own leakage model sees a consistent starting point.
	temps := make([]float64, e.NW.NumNodes())
	for i := range temps {
		temps[i] = 70
	}
	leak := make([]float64, nComp)
	for pass := 0; pass < 3; pass++ {
		e.Leak.PerComponent(e.Chip, temps, power.ModelLinear, leak)
		total := make([]float64, nComp)
		for i := range total {
			total[i] = dyn[i] + leak[i]
		}
		var err error
		temps, err = e.NW.Steady(total, fanLevel, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	nCores := e.Chip.NumCores()
	ips := make([]float64, nCores)
	dvfs := make([]int, nCores)
	for i := 0; i < nCores; i++ {
		ips[i] = 1e9
		dvfs[i] = e.DVFS.Max()
	}
	return &sim.Observation{
		Time:      0.01,
		Temps:     temps,
		DynPower:  dyn,
		CoreIPS:   ips,
		DVFS:      dvfs,
		TECOn:     make([]bool, len(e.TECs)),
		FanLevel:  fanLevel,
		Threshold: threshold,
	}
}

func newEstimator(e *testenv.Env) *Estimator {
	return NewEstimator(e.NW, e.DVFS, e.Leak, e.Fan, e.TECs, 2e-3)
}

func baseCandidate(e *testenv.Env, obs *sim.Observation) Candidate {
	return Candidate{
		DVFS:     append([]int(nil), obs.DVFS...),
		TECOn:    append([]bool(nil), obs.TECOn...),
		FanLevel: obs.FanLevel,
	}
}

func TestEstimateBaseline(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	c := baseCandidate(e, obs)
	r := est.Estimate(obs, c)
	if !r.Feasible {
		t.Fatalf("baseline infeasible at threshold 100: peak %.2f", r.PeakTemp)
	}
	if r.ChipIPS != 4e9 {
		t.Fatalf("ChipIPS = %v, want 4e9", r.ChipIPS)
	}
	// Chip power must include fan (3.8 W at level 1) + dyn (12 W) + leakage.
	if r.ChipPower < 12+3.8 {
		t.Fatalf("ChipPower = %v too low", r.ChipPower)
	}
	if r.EPI <= 0 || math.IsInf(r.EPI, 0) {
		t.Fatalf("EPI = %v", r.EPI)
	}
	if r.PeakComp < 0 || r.PeakComp >= e.NW.NumDie() {
		t.Fatalf("PeakComp = %d", r.PeakComp)
	}
}

func TestEstimateDVFSScaling(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	c := baseCandidate(e, obs)
	base := est.Estimate(obs, c)
	low := c.clone()
	for i := range low.DVFS {
		low.DVFS[i] = 0
	}
	r := est.Estimate(obs, low)
	// Eq. (7)+(11): dynamic power falls by ~4.3×, IPS by 2×.
	if r.ChipIPS >= base.ChipIPS {
		t.Fatal("lower DVFS must predict lower IPS")
	}
	if math.Abs(r.ChipIPS-base.ChipIPS/2) > 1e-3*base.ChipIPS {
		t.Fatalf("IPS ratio wrong: %v vs %v/2", r.ChipIPS, base.ChipIPS)
	}
	if r.ChipPower >= base.ChipPower {
		t.Fatal("lower DVFS must predict lower power")
	}
	if r.PeakTemp >= base.PeakTemp {
		t.Fatal("lower DVFS must predict lower peak temperature")
	}
}

func TestEstimateTECEffect(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.HotBench(4, 5.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	c := baseCandidate(e, obs)
	base := est.Estimate(obs, c)
	on := c.clone()
	for i := range on.TECOn {
		on.TECOn[i] = true
	}
	r := est.Estimate(obs, on)
	if r.PeakTemp >= base.PeakTemp {
		t.Fatalf("TECs must predict a lower peak: %.2f vs %.2f", r.PeakTemp, base.PeakTemp)
	}
	if r.ChipPower <= base.ChipPower {
		t.Fatal("powered TECs must predict higher chip power")
	}
}

func TestEstimateFanLevelEffect(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 4.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	c := baseCandidate(e, obs)
	c.FanLevel = 0
	fast := est.SteadyPeak(obs, c)
	c.FanLevel = 4
	slow := est.SteadyPeak(obs, c)
	// Slower fan: hotter steady state, less fan power (but more leakage —
	// the trade the higher level navigates).
	if slow <= fast {
		t.Fatal("slower fan must predict hotter steady state")
	}
}

func TestControllerHotTurnsOnTECs(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.HotBench(4, 5.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	ctl := NewController(est)
	// Force a hot situation: threshold below the current peak.
	_, peak := e.NW.PeakDie(obs.Temps)
	obs.Threshold = peak - 1
	dec := ctl.Control(obs)
	if dec.TECOn == nil {
		t.Fatal("no TEC decision in hot state")
	}
	nOn := 0
	for _, v := range dec.TECOn {
		if v {
			nOn++
		}
	}
	if nOn == 0 {
		t.Fatal("hot iteration engaged no TECs")
	}
	// Performance priority: mild violation should not throttle before TECs.
	for core, l := range dec.DVFS {
		if l != e.DVFS.Max() {
			// Allowed only if TECs could not fix it; with a 1 °C violation
			// TECs suffice.
			t.Fatalf("core %d throttled to %d despite TEC headroom", core, l)
		}
	}
}

func TestControllerHotThrottlesWhenTECsExhausted(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.HotBench(4, 6.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	ctl := NewController(est)
	_, peak := e.NW.PeakDie(obs.Temps)
	obs.Threshold = peak - 12 // far below what TECs alone can fix
	dec := ctl.Control(obs)
	throttled := false
	for _, l := range dec.DVFS {
		if l < e.DVFS.Max() {
			throttled = true
		}
	}
	if !throttled {
		t.Fatal("deep violation must trigger DVFS throttling")
	}
}

func TestControllerCoolRaisesDVFS(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 2.0, 2)
	obs := obsFor(t, e, b, 150, 1)
	// Start from a throttled state with plenty of headroom.
	for i := range obs.DVFS {
		obs.DVFS[i] = 2
	}
	est := newEstimator(e)
	ctl := NewController(est)
	dec := ctl.Control(obs)
	raised := false
	for _, l := range dec.DVFS {
		if l > 2 {
			raised = true
		}
		if l < 2 {
			t.Fatalf("cool iteration lowered DVFS to %d", l)
		}
	}
	if !raised {
		t.Fatal("cool iteration with huge headroom did not raise DVFS")
	}
}

func TestControllerCoolShedsTECs(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 2.0, 2)
	obs := obsFor(t, e, b, 150, 1)
	for i := range obs.TECOn {
		obs.TECOn[i] = true // everything on, yet the chip is cool
	}
	est := newEstimator(e)
	ctl := NewController(est)
	dec := ctl.Control(obs)
	nOn := 0
	for _, v := range dec.TECOn {
		if v {
			nOn++
		}
	}
	if nOn == len(obs.TECOn) {
		t.Fatal("cool iteration at max DVFS kept every TEC on")
	}
}

func TestControllerNeverAppliesInfeasibleWhenAvoidable(t *testing.T) {
	// Invariant: in a cool state the controller's final candidate estimate
	// must remain feasible.
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 2)
	obs := obsFor(t, e, b, 0, 1)
	_, peak := e.NW.PeakDie(obs.Temps)
	obs.Threshold = peak + 3 // modest headroom
	for i := range obs.DVFS {
		obs.DVFS[i] = 3
	}
	est := newEstimator(e)
	ctl := NewController(est)
	dec := ctl.Control(obs)
	final := Candidate{DVFS: dec.DVFS, TECOn: dec.TECOn, FanLevel: obs.FanLevel}
	r := est.Estimate(obs, final)
	if !r.Feasible {
		t.Fatalf("controller applied an infeasible config: peak %.2f > %.2f", r.PeakTemp, obs.Threshold)
	}
}

func TestFanControlSpeedsUpWhenHot(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 5.0, 2)
	obs := obsFor(t, e, b, 100, 3) // slow fan
	est := newEstimator(e)
	ctl := NewController(est)
	ctl.Control(obs) // prime the cached measurements
	_, peak := e.NW.PeakDie(obs.Temps)
	obs.Threshold = peak - 2 // hot at the current level
	level := ctl.FanControl(obs)
	if level >= obs.FanLevel {
		t.Fatalf("fan did not speed up: %d → %d", obs.FanLevel, level)
	}
}

func TestFanControlSlowsDownWithHeadroom(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 1.0, 2)
	obs := obsFor(t, e, b, 150, 0) // fastest fan, cool chip
	est := newEstimator(e)
	ctl := NewController(est)
	ctl.Control(obs)
	level := ctl.FanControl(obs)
	if level <= obs.FanLevel {
		t.Fatalf("fan did not slow down with huge headroom: %d → %d", obs.FanLevel, level)
	}
}

func TestFanControlNeedsPriming(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 2.0, 2)
	obs := obsFor(t, e, b, 100, 2)
	ctl := NewController(newEstimator(e))
	if got := ctl.FanControl(obs); got != obs.FanLevel {
		t.Fatalf("unprimed fan control moved the level to %d", got)
	}
}

func TestControllerResetClearsCache(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 2.0, 2)
	obs := obsFor(t, e, b, 100, 2)
	ctl := NewController(newEstimator(e))
	ctl.Control(obs)
	ctl.Reset()
	if got := ctl.FanControl(obs); got != obs.FanLevel {
		t.Fatal("Reset did not clear the cached observation")
	}
}

func TestEvaluationBudget(t *testing.T) {
	// The down-hill walk must stay within the paper's O(NL + N²M)
	// evaluation budget per control period.
	e := testenv.NewQuad()
	b := testenv.HotBench(4, 6.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	_, peak := e.NW.PeakDie(obs.Temps)
	obs.Threshold = peak - 15
	est := newEstimator(e)
	ctl := NewController(est)
	est.Evaluations = 0
	ctl.Control(obs)
	n := e.Chip.NumCores()
	bound := n*len(e.TECs) + n*n*e.DVFS.Num() + 1
	if est.Evaluations > bound {
		t.Fatalf("%d evaluations exceed the O(NL+N²M) bound %d", est.Evaluations, bound)
	}
}

func TestChipLevelDVFSMovesTogether(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.HotBench(4, 6.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	ctl := NewController(est)
	ctl.ChipLevelDVFS = true
	_, peak := e.NW.PeakDie(obs.Temps)
	obs.Threshold = peak - 12 // force throttling
	dec := ctl.Control(obs)
	for core := 1; core < len(dec.DVFS); core++ {
		if dec.DVFS[core] != dec.DVFS[0] {
			t.Fatalf("chip-level mode produced per-core levels: %v", dec.DVFS)
		}
	}
	if dec.DVFS[0] == e.DVFS.Max() {
		t.Fatal("deep violation did not lower the chip level")
	}
	// Cool state raises all cores together.
	obs2 := obsFor(t, e, testenv.MiniBench(4, 1.5, 2), 150, 1)
	for i := range obs2.DVFS {
		obs2.DVFS[i] = 2
	}
	dec2 := ctl.Control(obs2)
	for core := 1; core < len(dec2.DVFS); core++ {
		if dec2.DVFS[core] != dec2.DVFS[0] {
			t.Fatalf("cool chip-level raise not uniform: %v", dec2.DVFS)
		}
	}
	if dec2.DVFS[0] <= 2 {
		t.Fatal("cool state did not raise the chip level")
	}
}

func TestGradedCurrentControl(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.HotBench(4, 5.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	obs.TECAmps = make([]float64, len(e.TECs))
	est := newEstimator(e)
	ctl := NewController(est)
	ctl.CurrentLevels = DefaultCurrentLevels
	_, peak := e.NW.PeakDie(obs.Temps)
	obs.Threshold = peak - 1
	dec := ctl.Control(obs)
	if dec.TECAmps == nil {
		t.Fatal("graded mode returned no current vector")
	}
	raised := false
	for _, a := range dec.TECAmps {
		if a > 0 {
			raised = true
			// Currents must come from the configured levels.
			ok := false
			for _, l := range DefaultCurrentLevels {
				if a == l {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("current %v not a configured level", a)
			}
		}
	}
	if !raised {
		t.Fatal("hot state raised no device current")
	}
}

func TestNoKnobFlags(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.HotBench(4, 6.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	_, peak := e.NW.PeakDie(obs.Temps)
	obs.Threshold = peak - 12

	est := newEstimator(e)
	noTEC := NewController(est)
	noTEC.NoTEC = true
	dec := noTEC.Control(obs)
	for _, on := range dec.TECOn {
		if on {
			t.Fatal("NoTEC controller engaged a TEC")
		}
	}

	noDVFS := NewController(newEstimator(e))
	noDVFS.NoDVFS = true
	dec2 := noDVFS.Control(obs)
	for _, l := range dec2.DVFS {
		if l != e.DVFS.Max() {
			t.Fatal("NoDVFS controller throttled")
		}
	}
}

// The estimator's one-period prediction must track the simulated ground
// truth: run the actual transient (quadratic leakage, engaged TECs) for one
// 2 ms control period and compare with the Eq. (1)+(5) estimate. The error
// band here is the controller's Margin rationale.
func TestEstimatorPredictionAccuracy(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.HotBench(4, 5.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)

	cand := baseCandidate(e, obs)
	// Engage one core's TECs so the prediction includes Peltier terms.
	st := tec.NewState(e.TECs)
	for _, l := range st.CoreDevices(0) {
		cand.TECOn[l] = true
		st.Set(l, true)
	}
	pred := est.Estimate(obs, cand)

	// Ground truth: integrate one control period with quadratic leakage.
	tr, err := e.NW.NewTransient(1, 100e-6)
	if err != nil {
		t.Fatal(err)
	}
	temps := append([]float64(nil), obs.Temps...)
	nComp := len(e.Chip.Components)
	leakP := make([]float64, nComp)
	total := make([]float64, nComp)
	now := 0.0
	for step := 0; step < 20; step++ { // 2 ms at 100 µs
		e.Leak.PerComponent(e.Chip, temps, power.ModelQuad, leakP)
		for i := 0; i < nComp; i++ {
			total[i] = obs.DynPower[i] + leakP[i]
		}
		st.Advance(now)
		tr.Step(temps, total, st)
		now += 100e-6
	}
	_, realized := e.NW.PeakDie(temps)
	if d := pred.PeakTemp - realized; d > 2.5 || d < -2.5 {
		t.Fatalf("predicted peak %.2f vs realized %.2f: error %.2f exceeds the margin rationale",
			pred.PeakTemp, realized, d)
	}
	// The prediction errs toward over-estimation or small under-estimation;
	// systematic large under-estimation would make the Margin insufficient.
	if realized-pred.PeakTemp > 1.5 {
		t.Fatalf("prediction under-estimates by %.2f °C", realized-pred.PeakTemp)
	}
}
