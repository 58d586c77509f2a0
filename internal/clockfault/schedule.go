package clockfault

import (
	"fmt"
	"math"
	"path"

	"tecfan/internal/schedfile"
)

// Rule kinds.
const (
	// KindStep jumps the wall clock by Offset (signed — backward steps are
	// the interesting ones) the moment the process's clock-op counter
	// reaches AtOp. The step persists for the rest of the process.
	KindStep = "step"
	// KindDrift skews the wall clock by Rate extra seconds per real
	// monotonic second while the op counter is inside [FromOp, ToOp); the
	// accumulated skew persists after the window closes, like a real
	// undisciplined oscillator.
	KindDrift = "drift"
	// KindFreeze pins the wall clock at its window-entry value while the op
	// counter is inside [FromOp, ToOp). Monotonic readings stay truthful.
	KindFreeze = "freeze"
	// KindJitter stretches each timer/sleep armed inside the op window by a
	// seeded uniform draw from [0, Max), with probability Prob per arm.
	KindJitter = "jitter"
	// KindLate stretches each timer/sleep armed inside the op window by
	// exactly Max, with probability Prob per arm — the late-fire fault.
	KindLate = "late"
)

var validKinds = map[string]bool{
	KindStep: true, KindDrift: true, KindFreeze: true,
	KindJitter: true, KindLate: true,
}

// Rule is one clock impairment. Step rules trigger at a single op count
// (AtOp); every other kind is active over the half-open, 1-based op window
// [FromOp, ToOp), with FromOp 0 meaning "from the first op" and ToOp 0
// meaning "forever" — the same window convention diskfault uses. The op
// counter counts this process's wall reads and timer/sleep arms, so a rule's
// trigger point is a pure function of the process's own clock usage, not of
// wall-clock pacing.
type Rule struct {
	// Kind selects the impairment: step, drift, freeze, jitter, or late.
	Kind string `json:"kind"`
	// Proc is a path.Match glob over the process identity ("daemon", "w1",
	// "crucible-w*"); empty matches every process. This is what lets one
	// schedule skew the coordinator forward and a single worker backward.
	Proc string `json:"proc,omitempty"`
	// AtOp is the 1-based op count at which a step fires (step only).
	AtOp int64 `json:"at_op,omitempty"`
	// FromOp and ToOp bound the active op window (all kinds but step).
	FromOp int64 `json:"from_op,omitempty"`
	ToOp   int64 `json:"to_op,omitempty"`
	// Offset is the signed wall jump (step only).
	Offset schedfile.Duration `json:"offset,omitempty"`
	// Rate is the drift in extra wall seconds per monotonic second (drift
	// only); must be finite and greater than -1.
	Rate float64 `json:"rate,omitempty"`
	// Max is the added delay bound (jitter: uniform [0, Max); late: exactly
	// Max).
	Max schedfile.Duration `json:"max,omitempty"`
	// Prob is the per-arm firing probability for jitter/late (0 means 1).
	Prob float64 `json:"prob,omitempty"`
}

// windowStart returns the effective 1-based start of the rule's op window.
func (r Rule) windowStart() int64 {
	if r.FromOp <= 0 {
		return 1
	}
	return r.FromOp
}

// inWindow reports whether op lies inside the rule's active window.
func (r Rule) inWindow(op int64) bool {
	return op >= r.windowStart() && (r.ToOp == 0 || op < r.ToOp)
}

// validate checks one rule, labeling errors with its index.
func (r Rule) validate(i int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("clockfault: rule %d: %s", i, fmt.Sprintf(format, args...))
	}
	if !validKinds[r.Kind] {
		return fail("unknown kind %q (want step|drift|freeze|jitter|late)", r.Kind)
	}
	if r.Proc != "" {
		if _, err := path.Match(r.Proc, "probe"); err != nil {
			return fail("bad proc pattern %q: %v", r.Proc, err)
		}
	}
	if math.IsNaN(r.Rate) || math.IsInf(r.Rate, 0) {
		return fail("rate must be finite, got %v", r.Rate)
	}
	if math.IsNaN(r.Prob) || r.Prob < 0 || r.Prob > 1 {
		return fail("prob must be in [0, 1], got %v", r.Prob)
	}
	if r.Kind == KindStep {
		if r.AtOp < 1 {
			return fail("step needs at_op >= 1, got %d", r.AtOp)
		}
		if r.Offset == 0 {
			return fail("step needs a non-zero offset")
		}
		if r.FromOp != 0 || r.ToOp != 0 || r.Rate != 0 || r.Max != 0 || r.Prob != 0 {
			return fail("step uses only at_op/offset/proc")
		}
		return nil
	}
	if r.AtOp != 0 {
		return fail("at_op is a step-only field")
	}
	if r.FromOp < 0 || r.ToOp < 0 {
		return fail("negative op window [%d, %d)", r.FromOp, r.ToOp)
	}
	if r.ToOp != 0 && r.ToOp <= r.windowStart() {
		return fail("empty or inverted op window [%d, %d)", r.windowStart(), r.ToOp)
	}
	switch r.Kind {
	case KindDrift:
		if r.Rate == 0 {
			return fail("drift needs a non-zero rate")
		}
		if r.Rate <= -1 {
			return fail("drift rate must exceed -1 (the wall clock cannot run backward continuously), got %v", r.Rate)
		}
		if r.Offset != 0 || r.Max != 0 || r.Prob != 0 {
			return fail("drift uses only rate/from_op/to_op/proc")
		}
	case KindFreeze:
		if r.Offset != 0 || r.Rate != 0 || r.Max != 0 || r.Prob != 0 {
			return fail("freeze uses only from_op/to_op/proc")
		}
	case KindJitter, KindLate:
		if r.Max <= 0 {
			return fail("%s needs max > 0", r.Kind)
		}
		if r.Offset != 0 || r.Rate != 0 {
			return fail("%s uses only max/prob/from_op/to_op/proc", r.Kind)
		}
	}
	return nil
}

// Schedule is a seeded set of clock-fault rules, loaded through the shared
// schedfile door under the same strict-JSON discipline as every other fault
// schedule in the repo.
type Schedule struct {
	// Seed drives the jitter/late probability draws; 0 lets a campaign
	// derive one per episode.
	Seed int64 `json:"seed,omitempty"`
	// Rules are the impairments, applied independently per process.
	Rules []Rule `json:"rules"`
}

// Validate rejects malformed schedules: unknown kinds, NaN or sub-(-1)
// drift rates, negative or inverted op windows, and freeze rules whose
// windows could overlap on one process (two simultaneous freeze anchors
// would make the frozen wall value order-dependent).
func (s Schedule) Validate() error {
	if len(s.Rules) == 0 {
		return fmt.Errorf("clockfault: schedule has no rules")
	}
	for i, r := range s.Rules {
		if err := r.validate(i); err != nil {
			return err
		}
	}
	for i := 0; i < len(s.Rules); i++ {
		for j := i + 1; j < len(s.Rules); j++ {
			a, b := s.Rules[i], s.Rules[j]
			if a.Kind != KindFreeze || b.Kind != KindFreeze {
				continue
			}
			if !windowsOverlap(a, b) {
				continue
			}
			// Distinct non-empty globs may still both match one process, but
			// only identical or catch-all patterns are provably conflicting;
			// reject those, the decidable case.
			if a.Proc == b.Proc || a.Proc == "" || b.Proc == "" {
				return fmt.Errorf("clockfault: rules %d and %d: overlapping freeze windows on one process", i, j)
			}
		}
	}
	return nil
}

// windowsOverlap reports whether two window rules can be active at the same
// op (ToOp 0 = unbounded).
func windowsOverlap(a, b Rule) bool {
	aEndsBeforeB := a.ToOp != 0 && a.ToOp <= b.windowStart()
	bEndsBeforeA := b.ToOp != 0 && b.ToOp <= a.windowStart()
	return !aEndsBeforeB && !bEndsBeforeA
}

// ParseScheduleFile loads and validates a schedule from a JSON file.
func ParseScheduleFile(path string) (Schedule, error) {
	var s Schedule
	if err := schedfile.Load(path, &s, func() error { return s.Validate() }); err != nil {
		return Schedule{}, err
	}
	return s, nil
}
