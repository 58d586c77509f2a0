package exp

import (
	"fmt"
	"io"
	"math"

	"tecfan/internal/tec"
)

// Actuator time-scale study: §III-D's second key observation — the three
// knobs engage at wildly different speeds (TEC ~20 µs + millisecond die
// response, DVFS ~100 ns + millisecond die response, fan through a heat
// sink with seconds of thermal inertia) — is the entire justification for
// the two-level hierarchy. This experiment measures the 90 % step-response
// settling time of each actuator on the assembled thermal network rather
// than quoting datasheet constants.

// StepResponse is one actuator's measured step behaviour.
type StepResponse struct {
	Actuator string
	// Settle90 is the time (s) for the hottest component to cover 90 % of
	// the step between the old and new steady states.
	Settle90 float64
	// Delta is the eventual steady-state peak change (°C, signed).
	Delta float64
}

// Timescales runs the three step experiments on a hot quad-core scenario.
func (e *Env) Timescales() ([]StepResponse, error) {
	chip := e.Chip

	// Scenario: all cores moderately busy, one concentrated hot spot.
	basePower := hotPower(chip, 5.5)

	// watchComp, when ≥ 0, selects the component whose response is timed
	// (the actuated core's hot spot); −1 falls back to the global peak.
	measure := func(name string, fan0, fan1 int, ts1 *tec.State, power1 []float64, dt float64, watchComp int) (StepResponse, error) {
		t0, err := e.NW.Steady(basePower, fan0, nil)
		if err != nil {
			return StepResponse{}, err
		}
		t1, err := e.NW.Steady(power1, fan1, ts1)
		if err != nil {
			return StepResponse{}, err
		}
		peakComp := watchComp
		if peakComp < 0 {
			peakComp, _ = e.NW.PeakDie(t0)
		}
		p0 := t0[peakComp]
		p1 := t1[peakComp]
		delta := p1 - p0
		if math.Abs(delta) < 1e-6 {
			return StepResponse{Actuator: name, Settle90: 0, Delta: delta}, nil
		}
		tr, err := e.NW.NewTransient(fan1, dt)
		if err != nil {
			return StepResponse{}, err
		}
		temps := append([]float64(nil), t0...)
		now := 0.0
		for steps := 0; steps < 20_000_000; steps++ {
			if ts1 != nil {
				ts1.Advance(now)
			}
			tr.Step(temps, power1, ts1)
			now += dt
			if math.Abs(temps[peakComp]-p0) >= 0.9*math.Abs(delta) {
				return StepResponse{Actuator: name, Settle90: now, Delta: delta}, nil
			}
		}
		return StepResponse{}, fmt.Errorf("exp: %s step never settled", name)
	}

	var out []StepResponse

	hotCore := chip.NumCores() / 2
	hotSpot := chip.Lookup(hotCore, "FPMul")

	// TEC step: engage the hot core's array at fixed fan level 2 and watch
	// that core's FPMul.
	ts := tec.NewState(e.TECs)
	for _, l := range ts.CoreDevices(hotCore) {
		ts.Set(l, true)
	}
	// The steady-state target is computed with the devices engaged; the
	// transient below still pays the 20 µs engagement delay because the
	// integrator re-advances the clock from zero.
	ts.Advance(1)
	r, err := measure("TEC on (9 devices)", 1, 1, ts, basePower, 50e-6, hotSpot)
	if err != nil {
		return nil, err
	}
	out = append(out, r)

	// DVFS step: drop the hot core one level (dynamic power × DynScale).
	scaled := append([]float64(nil), basePower...)
	factor := e.DVFS.DynScale(e.DVFS.Max(), e.DVFS.Max()-1)
	for _, i := range chip.CoreComponents(hotCore) {
		scaled[i] *= factor
	}
	r, err = measure("DVFS max→max-1", 1, 1, nil, scaled, 50e-6, hotSpot)
	if err != nil {
		return nil, err
	}
	out = append(out, r)

	// Fan step: level 2 → level 1 (heat-sink inertia dominates the global
	// peak).
	r, err = measure("fan level 2→1", 1, 0, nil, basePower, 20e-3, -1)
	if err != nil {
		return nil, err
	}
	out = append(out, r)

	return out, nil
}

// WriteTimescales renders the study.
func WriteTimescales(w io.Writer, rows []StepResponse) {
	fmt.Fprintln(w, "actuator step responses (90 % settling of the hottest component)")
	fmt.Fprintf(w, "%-20s %14s %10s\n", "actuator", "settle90", "Δpeak")
	for _, r := range rows {
		unit := "s"
		v := r.Settle90
		switch {
		case v < 1e-3:
			v, unit = v*1e6, "µs"
		case v < 1:
			v, unit = v*1e3, "ms"
		}
		fmt.Fprintf(w, "%-20s %11.2f %2s %8.2f°C\n", r.Actuator, v, unit, r.Delta)
	}
}
