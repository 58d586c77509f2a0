package tecfan

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tecfan/internal/floats"
	"tecfan/internal/numfault"
	"tecfan/internal/numguard"
	"tecfan/internal/schedfile"
	"tecfan/internal/sim"
)

func TestNewAndListings(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ps := sys.Policies()
	if len(ps) != 6 {
		t.Fatalf("%d policies, want the paper's 5 plus TECfan-FT", len(ps))
	}
	want := map[string]bool{"Fan-only": true, "Fan+TEC": true, "Fan+DVFS": true, "DVFS+TEC": true, "TECfan": true, "TECfan-FT": true}
	for _, p := range ps {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("missing policies: %v", want)
	}
	bs := sys.Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("%d benchmarks, want the 8 Table I rows", len(bs))
	}
	for _, b := range bs {
		if !strings.Contains(b, "/") {
			t.Fatalf("benchmark id %q missing thread suffix", b)
		}
	}
}

func TestRunReport(t *testing.T) {
	sys, err := New(WithScale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run("lu", 16, "TECfan")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "lu" || rep.Threads != 16 || rep.Policy != "TECfan" {
		t.Fatalf("report identity wrong: %+v", rep)
	}
	if rep.Metrics.Energy <= 0 || rep.Metrics.Time <= 0 {
		t.Fatalf("empty metrics: %+v", rep.Metrics)
	}
	if rep.Threshold < 60 || rep.Threshold > 110 {
		t.Fatalf("threshold %.1f implausible", rep.Threshold)
	}
	if rep.Normalized.Delay <= 0 || rep.Normalized.Energy <= 0 {
		t.Fatalf("normalization missing: %+v", rep.Normalized)
	}
	if rep.FanLevel < 0 || rep.FanLevel > 4 {
		t.Fatalf("fan level %d out of range", rep.FanLevel)
	}
}

func TestRunErrors(t *testing.T) {
	sys, _ := New(WithScale(0.1))
	if _, err := sys.Run("nosuch", 16, "TECfan"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := sys.Run("lu", 16, "NoSuchPolicy"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := sys.Run("water", 16, "TECfan"); err == nil {
		t.Fatal("water/16 is not a Table I row")
	}
	for _, seconds := range []int{0, -1} {
		if _, err := Fig7(seconds); err == nil {
			t.Errorf("Fig7(%d) accepted an empty trace", seconds)
		}
	}
}

func TestTraceAPI(t *testing.T) {
	sys, _ := New(WithScale(0.1))
	trace, err := sys.Trace("fmm", 16, "Fan+TEC", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	for _, p := range trace {
		if p.FanLevel != 1 {
			t.Fatalf("trace at wrong fan level %d", p.FanLevel)
		}
		if p.ChipPower <= 0 || p.PeakTemp < 45 {
			t.Fatalf("bad trace point %+v", p)
		}
	}
	if _, err := sys.Trace("fmm", 16, "NoSuch", 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestOptions(t *testing.T) {
	sys, err := New(WithScale(0.05), WithViolationBudget(0.1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run("volrend", 16, "Fan-only")
	if err != nil {
		t.Fatal(err)
	}
	// At scale 0.05, volrend runs ≈ 2 ms.
	if rep.Metrics.Time > 0.01 {
		t.Fatalf("scale option ignored: %.4f s", rep.Metrics.Time)
	}
	// Non-positive scale is a configuration error, reported eagerly.
	if _, err := New(WithScale(-1)); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := New(WithScale(0)); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestFacadeAblationWrappers(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation wrappers in -short mode")
	}
	sys, err := New(WithScale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	// Current sweep and placement do not run simulations — cheap.
	crows, err := sys.CurrentAblation([]float64{4, 6})
	if err != nil || len(crows) != 2 {
		t.Fatalf("CurrentAblation: %v (%d rows)", err, len(crows))
	}
	a, u, err := sys.PlacementAblation()
	if err != nil || a <= 0 || u <= 0 {
		t.Fatalf("PlacementAblation: %v (%v/%v)", err, a, u)
	}
	rows, err := ControllerScaling([]int{1, 2})
	if err != nil || len(rows) != 2 {
		t.Fatalf("ControllerScaling: %v (%d rows)", err, len(rows))
	}
	ts, err := sys.Timescales()
	if err != nil || len(ts) != 3 {
		t.Fatalf("Timescales: %v (%d rows)", err, len(ts))
	}
	mrows, err := sys.MappingStudy("lu", "Fan-only")
	if err != nil || len(mrows) != 4 {
		t.Fatalf("MappingStudy: %v (%d rows)", err, len(mrows))
	}
	krows, prows, err := sys.Ablations("lu", []float64{2e-3})
	if err != nil || len(krows) != 5 || len(prows) != 1 {
		t.Fatalf("Ablations: %v (%d knob rows, %d period rows)", err, len(krows), len(prows))
	}
}

// TestTraceNumericRefusal pins, at the facade, the three ways a trace
// answers scheduled numeric corruption. The simulator-level ladder (retry
// from last-good, escalation to fail-safe, typed refusal with a finite
// partial result) is covered by the TestNumGuard* tests in internal/sim;
// this table checks that the facade carries it through unchanged: the error
// type, the partial trace, and the NumericHealth block.
func TestTraceNumericRefusal(t *testing.T) {
	const (
		transient  = `{"seed": 31337, "rules": [{"target": "temps", "action": "nan", "index": 0, "from_step": 40, "to_step": 41}]}`
		persistent = `{"seed": 31337, "rules": [{"target": "temps", "action": "nan", "index": 0, "from_step": 40, "to_step": 60, "persistent": true}]}`
	)
	trace := func(schedule, policy string) ([]sim.TracePoint, *NumericHealth, error) {
		t.Helper()
		opts := []Option{}
		if schedule != "" {
			var sched numfault.Schedule
			if err := schedfile.Parse("test", []byte(schedule), &sched, sched.Validate); err != nil {
				t.Fatal(err)
			}
			opts = append(opts, WithNumFaults(sched))
		}
		sys, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sys.TraceWithHealthContext(context.Background(), "cholesky", 16, policy, 0)
	}
	clean, _, err := trace("", "TECfan-FT")
	if err != nil {
		t.Fatal(err)
	}
	finite := func(tr []sim.TracePoint) bool {
		for _, p := range tr {
			if !floats.Finite(p.Time) || !floats.Finite(p.PeakTemp) ||
				!floats.Finite(p.ChipPower) || !floats.Finite(p.MeanDVFS) {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name, schedule, policy string
		check                  func(t *testing.T, tr []sim.TracePoint, h *NumericHealth, err error)
	}{
		{"persistent NaN refuses under plain TECfan", persistent, "TECfan",
			func(t *testing.T, tr []sim.TracePoint, h *NumericHealth, err error) {
				var de *sim.DivergenceError
				if !errors.As(err, &de) {
					t.Fatalf("err = %v, want a *sim.DivergenceError", err)
				}
				if len(tr) == 0 || !finite(tr) {
					t.Fatalf("refusal must return a non-empty, all-finite partial trace (%d points)", len(tr))
				}
				if h == nil || h.Violations == 0 {
					t.Fatalf("refusal health counts no violation: %+v", h)
				}
			}},
		{"persistent NaN latches fail-safe under TECfan-FT", persistent, "TECfan-FT",
			func(t *testing.T, tr []sim.TracePoint, h *NumericHealth, err error) {
				if err != nil {
					t.Fatalf("TECfan-FT must ride out the divergence, got %v", err)
				}
				if h == nil || !h.FailSafe || h.Diagnosis == nil || h.HeldSteps < 1 {
					t.Fatalf("want fail_safe with a diagnosis and held steps, got %+v", h)
				}
				if h.Diagnosis.Kind != numguard.KindNonFiniteTemp {
					t.Fatalf("diagnosis kind = %s, want %s", h.Diagnosis.Kind, numguard.KindNonFiniteTemp)
				}
				if !finite(tr) {
					t.Fatal("fail-safe trace carries a non-finite value")
				}
			}},
		{"transient upset recovers to the fault-free trace", transient, "TECfan-FT",
			func(t *testing.T, tr []sim.TracePoint, h *NumericHealth, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tr, clean) {
					t.Fatal("recovered trace differs from the fault-free one")
				}
				if h == nil || h.RecoveredSteps < 1 || h.FailSafe {
					t.Fatalf("want recovered_steps >= 1 without fail-safe, got %+v", h)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, h, err := trace(tc.schedule, tc.policy)
			tc.check(t, tr, h, err)
		})
	}
}
