// Package numguard is the physics-invariant runtime monitor under the
// simulator (DESIGN.md §15). Every integration step it audits the quantities
// all downstream proofs rest on: temperatures finite and inside a physical
// envelope, chip power finite and non-negative, the energy integral
// ∫power·dt in agreement with the metrics accumulator, actuator states in
// range. A violation is first retried (step fallback, which absorbs
// transient upsets byte-identically); a violation that survives the retry is
// a confirmed divergence, recorded as a structured diagnosis and escalated
// into the controller's sticky fail-safe — so no NaN or Inf ever reaches
// metrics, checkpoints, or report output.
//
// The auditor is deterministic and allocation-light: audits are pure sweeps
// over vectors the step already produced, and its whole state is a small
// gob-friendly struct that rides in the run checkpoint so resumed runs stay
// byte-identical.
package numguard

import (
	"fmt"

	"tecfan/internal/floats"
	"tecfan/internal/linalg"
)

// The physical envelope and the energy tolerance. The envelope is
// deliberately wide — it catches numerical divergence, not control-quality
// problems (the FT controller's own sensor plausibility window is the tight
// one): silicon at 500 °C is a solver blow-up, not a policy mistake.
const (
	tempMin   float64 = -60  // °C, below = non-physical
	tempMax   float64 = 500  // °C, above = non-physical
	energyTol float64 = 1e-6 // relative ∫power·dt vs metrics drift
)

// Kind names the violated invariant.
type Kind string

const (
	KindNonFiniteTemp    Kind = "non-finite-temperature"
	KindTempEnvelope     Kind = "temperature-envelope"
	KindSolverResidual   Kind = "solver-residual"
	KindEnergyDrift      Kind = "energy-drift"
	KindNonPhysicalPower Kind = "non-physical-power"
	KindActuatorRange    Kind = "actuator-range"
)

// Violation is the structured diagnosis of one invariant breach: which
// invariant, at which step and simulated time, which node, and under which
// actuator configuration. Float values are carried as strings (via
// linalg.SafeFloat) so a diagnosis describing a NaN can be marshaled to
// JSON — which rejects non-finite numbers — and never leaks the literal
// tokens the crucible's no-non-finite oracle searches results for.
type Violation struct {
	Kind     Kind    `json:"kind"`
	Step     int     `json:"step"`
	Time     float64 `json:"time_s"`
	Node     int     `json:"node"` // vector index; -1 when not applicable
	Value    string  `json:"value,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	FanLevel int     `json:"fan_level"`
	TECsOn   int     `json:"tecs_on"`
}

func (v *Violation) String() string {
	return fmt.Sprintf("numguard: %s at step %d (t=%.6fs, node %d, value %s, fan %d, tecs %d): %s",
		v.Kind, v.Step, v.Time, v.Node, v.Value, v.FanLevel, v.TECsOn, v.Detail)
}

// Error makes a Violation usable as an error.
func (v *Violation) Error() string { return v.String() }

// State is the auditor's whole mutable state, checkpointed inside the run
// snapshot so a resumed run audits identically to an uninterrupted one.
type State struct {
	// EnergyInt is the independently accumulated ∫chipPower·dt for the
	// current warm-start iteration, compared against the metrics
	// accumulator's energy at every control boundary.
	EnergyInt float64
	// Refinements counts iterative-refinement steps the verified solvers
	// performed (zero on a healthy run).
	Refinements int
	// Recovered counts steps where a violation vanished on retry
	// (transient upsets absorbed byte-identically).
	Recovered int
	// Held counts confirmed-divergent steps where the last good
	// temperature state was held instead of accepting corrupt values.
	Held int
	// Violations counts confirmed divergences.
	Violations int
	// FailSafe records that a confirmed divergence escalated the run.
	FailSafe bool
	// Diagnosis is the first confirmed violation (first diagnosis wins:
	// later violations are usually consequences of the first).
	Diagnosis *Violation
}

// Health is the externally visible NumericHealth block carried on run
// results and daemon job results.
type Health struct {
	Refinements    int        `json:"refinements"`
	RecoveredSteps int        `json:"recovered_steps"`
	HeldSteps      int        `json:"held_steps"`
	Violations     int        `json:"violations"`
	FailSafe       bool       `json:"fail_safe"`
	Diagnosis      *Violation `json:"diagnosis,omitempty"`
}

// Auditor runs the per-step audits and accumulates State.
type Auditor struct {
	st State
}

// New builds an auditor.
func New() *Auditor { return &Auditor{} }

// BeginIteration resets the per-iteration energy integral. Counters and the
// diagnosis survive: they describe the whole run, not one warm start.
func (a *Auditor) BeginIteration() { a.st.EnergyInt = 0 }

// State returns a copy for checkpointing.
func (a *Auditor) State() State { return a.st }

// SetState restores checkpointed state on resume.
func (a *Auditor) SetState(s State) { a.st = s }

// SeedEnergy aligns the energy integral with an already-accumulated metrics
// energy — used when resuming from a checkpoint written before the auditor
// existed, so the tripwire does not fire on the missing history.
func (a *Auditor) SeedEnergy(e float64) { a.st.EnergyInt = e }

// AddEnergy integrates one step of chip power, mirroring the metrics
// accumulator's own `energy += power·dt` so a healthy run agrees exactly.
func (a *Auditor) AddEnergy(dt, chipPower float64) { a.st.EnergyInt += chipPower * dt }

// AddRefinements records solver refinement work.
func (a *Auditor) AddRefinements(n int) { a.st.Refinements += n }

// NoteRecovered records a violation that disappeared on retry.
func (a *Auditor) NoteRecovered() { a.st.Recovered++ }

// NoteHeld records a confirmed-divergent step where the previous
// temperature state was held.
func (a *Auditor) NoteHeld() { a.st.Held++ }

// Confirm records a confirmed divergence; the first diagnosis sticks.
func (a *Auditor) Confirm(v *Violation) {
	a.st.Violations++
	if a.st.Diagnosis == nil {
		cp := *v
		a.st.Diagnosis = &cp
	}
}

// SetFailSafe records that the divergence escalated the controller.
func (a *Auditor) SetFailSafe() { a.st.FailSafe = true }

// Health snapshots the state as the externally visible block.
func (a *Auditor) Health() *Health {
	return &Health{
		Refinements:    a.st.Refinements,
		RecoveredSteps: a.st.Recovered,
		HeldSteps:      a.st.Held,
		Violations:     a.st.Violations,
		FailSafe:       a.st.FailSafe,
		Diagnosis:      a.st.Diagnosis,
	}
}

// violation builds a diagnosis with the value safely formatted. The caller
// fills in the actuator configuration.
func violation(kind Kind, step int, time float64, node int, value float64, detail string) *Violation {
	return &Violation{
		Kind:   kind,
		Step:   step,
		Time:   time,
		Node:   node,
		Value:  linalg.SafeFloat(value),
		Detail: detail,
	}
}

// CheckTemps audits the temperature vector: every node finite and inside
// the physical envelope. Returns the first offending node or nil.
func (a *Auditor) CheckTemps(step int, time float64, temps []float64) *Violation {
	for i, v := range temps {
		if !floats.Finite(v) {
			return violation(KindNonFiniteTemp, step, time, i, v, "temperature is not a finite number")
		}
		if v < tempMin || v > tempMax {
			return violation(KindTempEnvelope, step, time, i, v,
				fmt.Sprintf("temperature outside physical envelope [%g, %g] °C", tempMin, tempMax))
		}
	}
	return nil
}

// CheckPowerVec audits a per-component power vector for finiteness (the
// solver input side; negative components are legal — the Peltier term moves
// heat, so per-node net power can be negative).
func (a *Auditor) CheckPowerVec(step int, time float64, power []float64) *Violation {
	for i, v := range power {
		if !floats.Finite(v) {
			return violation(KindNonPhysicalPower, step, time, i, v, "component power is not a finite number")
		}
	}
	return nil
}

// CheckChipPower audits the aggregated chip power fed to metrics: finite
// and non-negative.
func (a *Auditor) CheckChipPower(step int, time, chipPower float64) *Violation {
	if !floats.Finite(chipPower) {
		return violation(KindNonPhysicalPower, step, time, -1, chipPower, "chip power is not a finite number")
	}
	if chipPower < 0 {
		return violation(KindNonPhysicalPower, step, time, -1, chipPower, "chip power is negative")
	}
	return nil
}

// CheckEnergy compares the auditor's independent energy integral against
// the metrics accumulator's energy. They follow the same floating-point op
// sequence, so on a healthy run they agree exactly; energyTol is the
// relative drift above which the metrics pipeline is declared corrupt.
func (a *Auditor) CheckEnergy(step int, time, accEnergy float64) *Violation {
	if !floats.Finite(accEnergy) {
		return violation(KindEnergyDrift, step, time, -1, accEnergy, "accumulated energy is not a finite number")
	}
	diff := a.st.EnergyInt - accEnergy
	if diff < 0 {
		diff = -diff
	}
	scale := accEnergy
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	if diff > energyTol*scale {
		return violation(KindEnergyDrift, step, time, -1, accEnergy,
			fmt.Sprintf("metrics energy drifted from ∫power·dt=%s by more than %g relative",
				linalg.SafeFloat(a.st.EnergyInt), energyTol))
	}
	return nil
}

// CheckActuators audits the commanded actuator configuration: fan level and
// per-core DVFS levels inside their ranges. maxFan and maxDVFS are
// inclusive upper bounds.
func (a *Auditor) CheckActuators(step int, time float64, fan, maxFan int, dvfs []int, maxDVFS int) *Violation {
	if fan < 0 || fan > maxFan {
		return violation(KindActuatorRange, step, time, -1, float64(fan),
			fmt.Sprintf("fan level outside [0, %d]", maxFan))
	}
	for i, l := range dvfs {
		if l < 0 || l > maxDVFS {
			return violation(KindActuatorRange, step, time, i, float64(l),
				fmt.Sprintf("DVFS level outside [0, %d]", maxDVFS))
		}
	}
	return nil
}
