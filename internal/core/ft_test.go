package core

import (
	"math"
	"testing"

	"tecfan/internal/fault"
	"tecfan/internal/numguard"
	"tecfan/internal/sim"
	"tecfan/internal/testenv"
)

// ftRun executes a short quad-chip run of TECfan-FT under a fault scenario
// (empty scenario = fault-free) and returns the result plus the controller's
// telemetry.
func ftRun(t *testing.T, sc fault.Scenario, hot bool, threshold float64) (*sim.Result, FTStats, error) {
	t.Helper()
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 4)
	if hot {
		b = testenv.HotBench(4, 6.0, 4)
	}
	cfg := e.Config(b, threshold)
	// Fan readback is sampled once per boundary, so give the 4 ms run a fan
	// decision every control period — enough samples for the mismatch streak.
	cfg.FanPeriod = 0.5e-3
	// One iteration: the fault log persists across warm starts, so a second
	// iteration would begin from the already-degraded state and blur the
	// single-fault assertions below.
	cfg.MaxWarmStarts = 1
	ft := NewFT(NewEstimator(e.NW, e.DVFS, e.Leak, e.Fan, e.TECs, cfg.ControlPeriod))
	if len(sc.Faults) > 0 {
		in := fault.NewInjector(sc, fault.Layout{
			Sensors:        e.NW.NumDie(),
			Cores:          e.Chip.NumCores(),
			DevicesPerCore: len(e.TECs) / e.Chip.NumCores(),
			FanLevels:      e.Fan.NumLevels(),
			MaxDVFS:        e.DVFS.Max(),
			Horizon:        b.TargetTimeMS / 1000,
		}, 11)
		cfg.Faults = in
	}
	r, err := sim.NewRunner(cfg, ft)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	return res, ft.Stats(), err
}

func TestFTCleanRunNoFalsePositives(t *testing.T) {
	res, st, err := ftRun(t, fault.Scenario{}, false, 95)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("clean run did not complete")
	}
	if st.FirstDetection >= 0 {
		t.Fatalf("clean run raised a detection at t=%v: %+v", st.FirstDetection, st)
	}
	if st.FailSafe {
		t.Fatal("clean run entered fail-safe")
	}
}

func TestFTSubstitutesDroppedSensors(t *testing.T) {
	sc := fault.Scenario{Name: "dropout", Faults: []fault.Fault{
		{Kind: fault.SensorDropout, Count: 2, StartFrac: 0.25},
	}}
	res, st, err := ftRun(t, sc, false, 95)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete under sensor dropout")
	}
	if st.DistrustedSensors != 2 {
		t.Fatalf("distrusted %d sensors, want 2 (%+v)", st.DistrustedSensors, st)
	}
	if st.Substitutions == 0 {
		t.Fatal("no substituted readings despite distrusted sensors")
	}
	if st.FirstDetection < 0.25*0.004 {
		t.Fatalf("detection at t=%v predates the fault onset", st.FirstDetection)
	}
	if st.FailSafe {
		t.Fatal("two dropped sensors should not exhaust the budget")
	}
}

func TestFTDeratesFailedBank(t *testing.T) {
	sc := fault.Scenario{Name: "tec-off", Faults: []fault.Fault{
		{Kind: fault.TECFailOff, Count: 1, StartFrac: 0},
	}}
	// Deep violation (steady peak ~91 °C vs an 85 °C threshold) so the hot
	// iteration engages TECs on every core — readback then exposes the dead
	// bank. A near-threshold run only toggles a couple of devices and might
	// never command the failed core at all.
	_, st, err := ftRun(t, sc, true, 85)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeratedBanks < 1 {
		t.Fatalf("failed bank was not de-rated: %+v", st)
	}
	if st.FailSafe {
		t.Fatal("one dead bank should degrade, not fail safe")
	}
}

func TestFTFailSafeOnStuckFan(t *testing.T) {
	sc := fault.Scenario{Name: "fan-stuck", Faults: []fault.Fault{
		{Kind: fault.FanStuck, StartFrac: 0.1, Param: 1e9},
	}}
	// At the stuck slowest level the steady peak (~100 °C) sits far above
	// the 92 °C threshold, so the fan loop keeps demanding a faster fan.
	_, st, err := ftRun(t, sc, true, 92)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FanFailed {
		t.Fatalf("stuck fan not detected: %+v", st)
	}
	if !st.FailSafe || st.FailSafeAt < 0 {
		t.Fatalf("stuck fan must trigger fail-safe: %+v", st)
	}
}

func TestFTDisabledForcedOffInCandidates(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.HotBench(4, 5.0, 2)
	est := NewEstimator(e.NW, e.DVFS, e.Leak, e.Fan, e.TECs, 2e-3)
	ctl := NewController(est)
	obs := obsFor(t, e, b, 100, 1)
	_, peak := e.NW.PeakDie(obs.Temps)
	obs.Threshold = peak - 1 // mild violation: TECs engage, no throttling
	dec := ctl.Control(obs)
	if dec.TECOn == nil {
		t.Fatal("hot run returned no TEC request")
	}
	anyOn := false
	for _, on := range dec.TECOn {
		anyOn = anyOn || on
	}
	if !anyOn {
		t.Fatal("hot run engaged no TECs; test premise broken")
	}
	// Disable core 0's devices and re-run: none of them may engage.
	ctl = NewController(est)
	ctl.Disabled = make([]bool, len(e.TECs))
	for l, pl := range e.TECs {
		if pl.Core == 0 {
			ctl.Disabled[l] = true
		}
	}
	dec = ctl.Control(obs)
	for l, pl := range e.TECs {
		if pl.Core == 0 && dec.TECOn != nil && dec.TECOn[l] {
			t.Fatalf("disabled device %d engaged", l)
		}
	}
}

// nanTemps is a sim.NumFaultInjector that writes NaN into one node's
// temperature at a fixed step; persistent, so the retry confirms it.
type nanTemps struct{ step int }

func (n *nanTemps) CorruptPower(step int, retry bool, power []float64) bool { return false }
func (n *nanTemps) CorruptTemps(step int, retry bool, temps []float64) bool {
	if step != n.step {
		return false
	}
	temps[0] = math.NaN()
	return true
}

// EscalateNumeric must enter the sticky fail-safe on the first confirmed
// divergence and keep the first diagnosis even as later ones arrive.
func TestFTEscalateNumericUnit(t *testing.T) {
	e := testenv.NewQuad()
	ft := NewFT(NewEstimator(e.NW, e.DVFS, e.Leak, e.Fan, e.TECs, 2e-3))
	v1 := numguard.Violation{Kind: numguard.KindNonFiniteTemp, Step: 9, Time: 0.9e-3, Node: 2}
	v2 := numguard.Violation{Kind: numguard.KindEnergyDrift, Step: 12, Time: 1.2e-3, Node: -1}
	ft.EscalateNumeric(v1)
	ft.EscalateNumeric(v2)
	st := ft.Stats()
	if st.NumericEscalations != 2 {
		t.Fatalf("NumericEscalations = %d, want 2", st.NumericEscalations)
	}
	if st.NumericDiagnosis != v1.String() {
		t.Fatalf("diagnosis = %q, want the first violation %q", st.NumericDiagnosis, v1.String())
	}
	if !st.FailSafe || st.FailSafeAt != v1.Time {
		t.Fatalf("fail-safe not latched at the first divergence: %+v", st)
	}
}

// End to end: a persistent NaN in the thermal state under TECfan-FT must
// finish the run in numeric fail-safe instead of returning a DivergenceError.
func TestFTCompletesUnderPersistentNumFault(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 4)
	cfg := e.Config(b, 95)
	cfg.MaxWarmStarts = 1
	cfg.NumFaults = &nanTemps{step: 5}
	ft := NewFT(NewEstimator(e.NW, e.DVFS, e.Leak, e.Fan, e.TECs, cfg.ControlPeriod))
	r, err := sim.NewRunner(cfg, ft)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("FT run refused instead of escalating: %v", err)
	}
	if !res.Completed {
		t.Fatal("run did not complete under escalation")
	}
	st := ft.Stats()
	if st.NumericEscalations == 0 || st.NumericDiagnosis == "" {
		t.Fatalf("no numeric escalation recorded: %+v", st)
	}
	if !st.FailSafe {
		t.Fatal("numeric escalation did not latch the fail-safe")
	}
	if res.Numeric == nil || !res.Numeric.FailSafe || res.Numeric.Diagnosis == nil {
		t.Fatalf("result health missing the fail-safe diagnosis: %+v", res.Numeric)
	}
	if res.Numeric.Diagnosis.Kind != numguard.KindNonFiniteTemp {
		t.Fatalf("diagnosis kind = %s", res.Numeric.Diagnosis.Kind)
	}
	for _, v := range res.FinalTemps {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite value leaked into FinalTemps")
		}
	}
}
