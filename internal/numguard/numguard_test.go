package numguard

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCheckTemps(t *testing.T) {
	a := New()
	if v := a.CheckTemps(3, 0.5, []float64{45, 80, 95}); v != nil {
		t.Errorf("healthy temps flagged: %v", v)
	}
	v := a.CheckTemps(3, 0.5, []float64{45, math.NaN(), 95})
	if v == nil || v.Kind != KindNonFiniteTemp || v.Node != 1 {
		t.Errorf("NaN temp: %+v", v)
	}
	v = a.CheckTemps(7, 1.0, []float64{45, 80, 1e6})
	if v == nil || v.Kind != KindTempEnvelope || v.Node != 2 {
		t.Errorf("envelope: %+v", v)
	}
	v = a.CheckTemps(7, 1.0, []float64{-200, 80, 90})
	if v == nil || v.Kind != KindTempEnvelope {
		t.Errorf("cold envelope: %+v", v)
	}
}

func TestCheckChipPower(t *testing.T) {
	a := New()
	if v := a.CheckChipPower(0, 0, 42.5); v != nil {
		t.Errorf("healthy power flagged: %v", v)
	}
	if v := a.CheckChipPower(0, 0, math.Inf(1)); v == nil || v.Kind != KindNonPhysicalPower {
		t.Errorf("Inf power: %+v", v)
	}
	if v := a.CheckChipPower(0, 0, -1); v == nil || v.Kind != KindNonPhysicalPower {
		t.Errorf("negative power: %+v", v)
	}
}

func TestCheckEnergyAgreesExactly(t *testing.T) {
	a := New()
	// Mirror the accumulator's op sequence: identical adds must agree
	// exactly, not just within tolerance.
	var acc float64
	dt, p := 1e-4, 37.25
	for i := 0; i < 10000; i++ {
		a.AddEnergy(dt, p)
		acc += p * dt
	}
	if v := a.CheckEnergy(10000, 1.0, acc); v != nil {
		t.Errorf("identical op sequence drifted: %v", v)
	}
	if v := a.CheckEnergy(10000, 1.0, acc*2); v == nil || v.Kind != KindEnergyDrift {
		t.Errorf("doubled energy not flagged: %+v", v)
	}
	if v := a.CheckEnergy(10000, 1.0, math.NaN()); v == nil {
		t.Error("NaN energy not flagged")
	}
}

func TestCheckActuators(t *testing.T) {
	a := New()
	if v := a.CheckActuators(0, 0, 3, 9, []int{0, 5, 9}, 9); v != nil {
		t.Errorf("healthy actuators flagged: %v", v)
	}
	if v := a.CheckActuators(0, 0, 12, 9, nil, 9); v == nil || v.Kind != KindActuatorRange {
		t.Errorf("fan out of range: %+v", v)
	}
	if v := a.CheckActuators(0, 0, 3, 9, []int{0, -1}, 9); v == nil || v.Node != 1 {
		t.Errorf("dvfs out of range: %+v", v)
	}
}

func TestCountersAndDiagnosis(t *testing.T) {
	a := New()
	v1 := a.CheckTemps(5, 0.1, []float64{math.Inf(1)})
	v2 := a.CheckTemps(9, 0.2, []float64{math.NaN()})
	a.NoteRecovered()
	a.Confirm(v1)
	a.NoteHeld()
	a.Confirm(v2)
	a.SetFailSafe()
	a.AddRefinements(3)
	h := a.Health()
	if h.RecoveredSteps != 1 || h.HeldSteps != 1 || h.Violations != 2 || !h.FailSafe || h.Refinements != 3 {
		t.Errorf("health: %+v", h)
	}
	if h.Diagnosis == nil || h.Diagnosis.Step != 5 {
		t.Errorf("first diagnosis should win: %+v", h.Diagnosis)
	}
}

// The run snapshot is gob-encoded; auditor state must round-trip exactly.
func TestStateGobRoundTrip(t *testing.T) {
	a := New()
	a.AddEnergy(1e-4, 40)
	a.Confirm(a.CheckTemps(2, 0.01, []float64{math.NaN()}))
	a.SetFailSafe()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a.State()); err != nil {
		t.Fatal(err)
	}
	var got State
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := a.State()
	if got.EnergyInt != want.EnergyInt || got.Violations != want.Violations || !got.FailSafe {
		t.Errorf("round trip: %+v vs %+v", got, want)
	}
	if got.Diagnosis == nil || got.Diagnosis.Kind != KindNonFiniteTemp {
		t.Errorf("diagnosis lost: %+v", got.Diagnosis)
	}
}

// BeginIteration resets only the per-iteration integral; run-level counters
// survive across warm starts.
func TestBeginIterationKeepsCounters(t *testing.T) {
	a := New()
	a.AddEnergy(1, 10)
	a.NoteRecovered()
	a.BeginIteration()
	if st := a.State(); st.EnergyInt != 0 || st.Recovered != 1 {
		t.Errorf("after BeginIteration: %+v", st)
	}
}

// Violations describing non-finite values must marshal to JSON (which
// rejects NaN/Inf) and must not contain the literal grep tokens.
func TestViolationJSONSafe(t *testing.T) {
	a := New()
	v := a.CheckTemps(1, 0.5, []float64{math.NaN()})
	v.FanLevel, v.TECsOn = 2, 4
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, tok := range []string{"NaN", "Inf"} {
		if strings.Contains(string(raw), tok) {
			t.Errorf("JSON contains %q: %s", tok, raw)
		}
		if strings.Contains(v.String(), tok) {
			t.Errorf("String contains %q: %s", tok, v)
		}
	}
}
