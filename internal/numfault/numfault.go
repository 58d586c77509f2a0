// Package numfault injects scheduled numerical corruption — NaNs, infinities,
// and finite perturbations — into the simulator's solver inputs and outputs,
// in the style of internal/diskfault for storage. It exists to prove the
// numguard invariant auditor: every corruption a schedule can express must
// either be caught and recovered (transient rules) or caught and escalated
// into the controller's sticky fail-safe (persistent rules). Injection is a
// pure function of (seed, step, rule index), so a resumed run replays the
// exact same faults with no injector state in the checkpoint.
package numfault

import (
	"fmt"
	"math"

	"tecfan/internal/schedfile"
	"tecfan/internal/splitmix"
)

// Targets a rule can corrupt.
const (
	TargetTemps = "temps" // the temperature vector after the implicit step
	TargetPower = "power" // the per-component power vector before the step
)

var validTargets = map[string]bool{TargetTemps: true, TargetPower: true}

// Actions a rule can apply.
const (
	ActNaN     = "nan"     // overwrite with NaN
	ActInf     = "inf"     // overwrite with +Inf (magnitude < 0 flips sign)
	ActPerturb = "perturb" // add magnitude (°C on temps, W on power)
)

var validActions = map[string]bool{ActNaN: true, ActInf: true, ActPerturb: true}

// Rule corrupts one element (or all) of a target vector over a step window.
type Rule struct {
	// Target selects the vector: "temps" or "power".
	Target string `json:"target"`
	// Action is "nan", "inf", or "perturb".
	Action string `json:"action"`
	// Index is the element to corrupt; -1 corrupts every element. Indices
	// beyond the vector length are ignored at injection time (vector sizes
	// depend on the floorplan, unknown at schedule-validation time).
	Index int `json:"index"`
	// Magnitude is the perturbation size for "perturb" (required nonzero)
	// and the sign selector for "inf" (negative → -Inf).
	Magnitude float64 `json:"magnitude,omitempty"`
	// FromStep..ToStep is the half-open step window [from, to); ToStep 0
	// means unbounded.
	FromStep int `json:"from_step"`
	ToStep   int `json:"to_step,omitempty"`
	// Persistent rules re-fire when the simulator retries a corrupted
	// step, modeling a genuine numerical defect: the retry fails again and
	// the divergence is confirmed. Transient rules (the default) skip the
	// retry, modeling a one-off upset the step-fallback absorbs.
	Persistent bool `json:"persistent,omitempty"`
	// Prob in (0, 1] fires the rule on that fraction of in-window steps,
	// decided by the seeded hash. 0 means 1 (always).
	Prob float64 `json:"prob,omitempty"`
}

func (r *Rule) validate(i int) error {
	if !validTargets[r.Target] {
		return fmt.Errorf("numfault: rule %d: unknown target %q", i, r.Target)
	}
	if !validActions[r.Action] {
		return fmt.Errorf("numfault: rule %d: unknown action %q", i, r.Action)
	}
	if r.Index < -1 {
		return fmt.Errorf("numfault: rule %d: index %d (want -1 for all, or >= 0)", i, r.Index)
	}
	if r.Action == ActPerturb && (r.Magnitude == 0 || math.IsNaN(r.Magnitude) || math.IsInf(r.Magnitude, 0)) {
		return fmt.Errorf("numfault: rule %d: perturb needs a finite nonzero magnitude", i)
	}
	if r.FromStep < 0 {
		return fmt.Errorf("numfault: rule %d: from_step %d < 0", i, r.FromStep)
	}
	if r.ToStep != 0 && r.ToStep <= r.FromStep {
		return fmt.Errorf("numfault: rule %d: to_step %d <= from_step %d", i, r.ToStep, r.FromStep)
	}
	if r.Prob < 0 || r.Prob > 1 || math.IsNaN(r.Prob) {
		return fmt.Errorf("numfault: rule %d: prob %v outside [0, 1]", i, r.Prob)
	}
	return nil
}

// inWindow reports whether the rule covers step.
func (r *Rule) inWindow(step int) bool {
	return step >= r.FromStep && (r.ToStep == 0 || step < r.ToStep)
}

// Schedule is the JSON document the -numfault-schedule flags and crucible
// campaign specs feed in.
type Schedule struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Validate checks every rule.
func (s *Schedule) Validate() error {
	for i := range s.Rules {
		if err := s.Rules[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

// ParseScheduleFile loads and validates a schedule from a JSON file through
// the shared schedfile loader, so errors carry the file path and rule index.
func ParseScheduleFile(path string) (Schedule, error) {
	var s Schedule
	if err := schedfile.Load(path, &s, s.Validate); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// Injector applies a schedule. It is stateless beyond the schedule itself:
// whether a rule fires at a step depends only on (seed, step, rule index),
// never on how many faults fired before — the property that keeps
// checkpoint/resume byte-identical under injection.
type Injector struct {
	seed  int64
	rules []Rule
}

// NewInjector builds an injector for a validated schedule.
func NewInjector(s Schedule) *Injector {
	return &Injector{seed: s.Seed, rules: s.Rules}
}

// fires decides rule ri at step, deterministically.
func (in *Injector) fires(ri, step int) bool {
	r := &in.rules[ri]
	if !r.inWindow(step) {
		return false
	}
	if r.Prob == 0 || r.Prob >= 1 {
		return true
	}
	h := splitmix.Mix(uint64(in.seed) ^ splitmix.Mix(uint64(step))<<1 ^ splitmix.Mix(uint64(ri))<<2)
	u := float64(h>>11) / (1 << 53)
	return u < r.Prob
}

// apply corrupts vec per rule r.
func (r *Rule) apply(vec []float64) {
	lo, hi := r.Index, r.Index+1
	if r.Index == -1 {
		lo, hi = 0, len(vec)
	}
	if lo >= len(vec) {
		return
	}
	if hi > len(vec) {
		hi = len(vec)
	}
	for i := lo; i < hi; i++ {
		switch r.Action {
		case ActNaN:
			vec[i] = math.NaN()
		case ActInf:
			if r.Magnitude < 0 {
				vec[i] = math.Inf(-1)
			} else {
				vec[i] = math.Inf(1)
			}
		case ActPerturb:
			vec[i] += r.Magnitude
		}
	}
}

// corrupt applies every firing rule for target at step. retry restricts to
// persistent rules, modeling the simulator's step-fallback re-attempt.
// It reports whether any rule fired.
func (in *Injector) corrupt(target string, step int, retry bool, vec []float64) bool {
	fired := false
	for ri := range in.rules {
		r := &in.rules[ri]
		if r.Target != target || (retry && !r.Persistent) {
			continue
		}
		if in.fires(ri, step) {
			r.apply(vec)
			fired = true
		}
	}
	return fired
}

// CorruptTemps applies temperature rules for step; see corrupt.
func (in *Injector) CorruptTemps(step int, retry bool, temps []float64) bool {
	return in.corrupt(TargetTemps, step, retry, temps)
}

// CorruptPower applies power rules for step; see corrupt.
func (in *Injector) CorruptPower(step int, retry bool, power []float64) bool {
	return in.corrupt(TargetPower, step, retry, power)
}
