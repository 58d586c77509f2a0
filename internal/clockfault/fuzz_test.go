package clockfault

import (
	"math"
	"testing"
	"time"

	"tecfan/internal/schedfile"
)

// parse decodes a schedule through the strict loader every clockfault
// schedule enters by.
func parse(data []byte) (Schedule, error) {
	var s Schedule
	err := schedfile.Parse("test", data, &s, func() error { return s.Validate() })
	return s, err
}

// FuzzClockSchedule hammers the strict schedule decoder: whatever bytes come
// in, the strict loader must either reject them or hand back a schedule that
// re-validates, round-trips its op windows sanely, and compiles into a
// FaultClock that serves a few ops without panicking. The seeds cover the
// rejection classes the validator owes us: NaN-ish drift rates, negative and
// inverted windows, overlapping freeze rules, unknown fields, trailing junk.
func FuzzClockSchedule(f *testing.F) {
	seeds := []string{
		`{"seed": 7, "rules": [{"kind": "step", "at_op": 1, "offset": "90s"}]}`,
		`{"rules": [{"kind": "step", "proc": "daemon", "at_op": 3, "offset": "-90s"}]}`,
		`{"rules": [{"kind": "drift", "rate": 0.05, "from_op": 2, "to_op": 9}]}`,
		`{"rules": [{"kind": "drift", "rate": -0.5}]}`,
		`{"rules": [{"kind": "freeze", "from_op": 4, "to_op": 8}]}`,
		`{"rules": [{"kind": "jitter", "max": "250ms", "prob": 0.3}]}`,
		`{"rules": [{"kind": "late", "max": "1s", "from_op": 1, "to_op": 5}]}`,
		// Must be rejected:
		`{"rules": [{"kind": "drift", "rate": 1e999}]}`,
		`{"rules": [{"kind": "drift", "rate": "NaN"}]}`,
		`{"rules": [{"kind": "freeze", "from_op": -3}]}`,
		`{"rules": [{"kind": "freeze", "from_op": 9, "to_op": 2}]}`,
		`{"rules": [{"kind": "freeze", "to_op": 5}, {"kind": "freeze", "from_op": 3}]}`,
		`{"rules": [{"kind": "step", "at_op": 1, "offset": "90s", "surprise": true}]}`,
		`{"rules": [{"kind": "jitter", "max": "1s"}]} extra`,
		`{"rules": []}`,
		`{"rules": [{"kind": "warp"}]}`,
		`not json at all`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parse(data)
		if err != nil {
			return
		}
		// Accepted schedules must be internally coherent.
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted schedule fails re-validation: %v", err)
		}
		for i, r := range s.Rules {
			if math.IsNaN(r.Rate) || math.IsInf(r.Rate, 0) {
				t.Fatalf("rule %d: non-finite rate %v survived", i, r.Rate)
			}
			if r.FromOp < 0 || r.ToOp < 0 {
				t.Fatalf("rule %d: negative window [%d, %d) survived", i, r.FromOp, r.ToOp)
			}
			if r.ToOp != 0 && r.ToOp <= r.windowStart() && r.Kind != KindStep {
				t.Fatalf("rule %d: inverted window [%d, %d) survived", i, r.windowStart(), r.ToOp)
			}
		}
		// And must compile and serve ops for a couple of process identities.
		for _, proc := range []string{"daemon", "w1"} {
			base := NewManual(time.Unix(0, 0))
			fc, err := New(s, proc, &Options{Base: base})
			if err != nil {
				t.Fatalf("valid schedule rejected by New(%q): %v", proc, err)
			}
			for op := 0; op < 8; op++ {
				fc.Now()
				fc.stretch(time.Millisecond)
				base.Advance(time.Millisecond)
			}
		}
	})
}
