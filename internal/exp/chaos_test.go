package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"tecfan/internal/floats"
)

// chaosEnv is a millisecond-scale environment for sweep tests.
func chaosEnv() *Env {
	e := NewEnv()
	e.Scale = 0.001
	e.MaxWarmStarts = 1
	return e
}

// faultedEnv is the smallest environment at which the TECfan-FT rows of
// sensor-dropout and tec-fail-off both leave a mark. In chaosEnv's runs
// (scale 0.001, one warm start) neither fault starts before the run ends,
// so every row equals its fault-free base; at scale 0.05 with one warm
// start the tec-fail-off row still does.
func faultedEnv() *Env {
	e := NewEnv()
	e.Scale = 0.05
	return e
}

// requireFaultsLanded fails unless every row differs from its fault-free
// base: a detection, or an EPI other than the base run's. A sweep whose
// rows all equal their bases checks no fault handling at all.
func requireFaultsLanded(t *testing.T, rows []ChaosRow) {
	t.Helper()
	for _, row := range rows {
		if row.DetectionLatency < 0 && floats.Same(row.EPI, row.BaseEPI) {
			t.Errorf("scenario %s left no trace: no detection, and EPI %v equals the fault-free run's", row.Scenario, row.EPI)
		}
	}
}

// TestChaosSweepSmall runs two scenarios at faultedEnv's scale, where both
// faults leave a mark.
func TestChaosSweepSmall(t *testing.T) {
	res, err := faultedEnv().ChaosContext(context.Background(), ChaosOptions{
		Bench: "cholesky", Threads: 16,
		Policies:  []string{"TECfan-FT"},
		Scenarios: []string{"sensor-dropout", "tec-fail-off"},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	if n := res.Panics(); n != 0 {
		t.Fatalf("%d runs panicked: %+v", n, res.Rows)
	}
	for _, row := range res.Rows {
		if row.Policy != "TECfan-FT" {
			t.Fatalf("unexpected policy %q", row.Policy)
		}
		if row.Err != "" && !row.TimeCapped {
			t.Fatalf("scenario %s errored: %s", row.Scenario, row.Err)
		}
	}
	requireFaultsLanded(t, res.Rows)
	var buf bytes.Buffer
	WriteChaos(&buf, res)
	checkDigest(t, "chaos", buf.Bytes())
}

// Plain TECfan has no sensor validation, so a NaN sensor makes the steady
// solver refuse its estimates. The controller must then hold or throttle,
// never index the empty estimate and panic. The dropout starts late enough
// that the run must be longer than chaosEnv's.
func TestChaosPlainTECfanRefusedEstimate(t *testing.T) {
	e := chaosEnv()
	e.Scale = 0.05
	res, err := e.ChaosContext(context.Background(), ChaosOptions{
		Bench: "cholesky", Threads: 16,
		Policies:  []string{"TECfan"},
		Scenarios: []string{"sensor-dropout"},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Panics(); n != 0 {
		t.Fatalf("%d runs panicked: %+v", n, res.Rows)
	}
}

func TestChaosRejectsUnknownInputs(t *testing.T) {
	e := chaosEnv()
	if _, err := e.ChaosContext(context.Background(), ChaosOptions{Bench: "cholesky", Threads: 16,
		Policies: []string{"nope"}}); err == nil ||
		!strings.Contains(err.Error(), "TECfan-FT") {
		t.Fatalf("unknown policy error should list valid policies, got %v", err)
	}
	if _, err := e.ChaosContext(context.Background(), ChaosOptions{Bench: "cholesky", Threads: 16,
		Scenarios: []string{"nope"}}); err == nil ||
		!strings.Contains(err.Error(), "sensor-stuck") {
		t.Fatalf("unknown scenario error should list valid scenarios, got %v", err)
	}
	if _, err := e.ChaosContext(context.Background(), ChaosOptions{Bench: "nope", Threads: 16}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestChaosWriters(t *testing.T) {
	r := &ChaosResult{Bench: "cholesky", Threads: 16, Threshold: 83.5, Seed: 7,
		Rows: []ChaosRow{
			{Scenario: "sensor-dropout", Desc: "two sensors report NaN", Policy: "TECfan-FT",
				Violation: 0.01, BaseViolation: 0.005, EPI: 1.1, BaseEPI: 1.0,
				PeakTemp: 84.2, DetectionLatency: 0.002, Recovery: -1,
				Accepted: true, Reason: "violation within budget"},
			{Scenario: "fan-stuck-slow", Policy: "TECfan-FT", Panicked: true,
				PanicMsg: "boom", DetectionLatency: -1, Recovery: -1, Reason: "panicked"},
		}}
	var md bytes.Buffer
	WriteChaos(&md, r)
	for _, want := range []string{"sensor-dropout", "PANIC: boom", "1 panics", "fail-safe"} {
		if !strings.Contains(md.String(), want) {
			t.Fatalf("markdown report missing %q:\n%s", want, md.String())
		}
	}
	var csvBuf bytes.Buffer
	if err := WriteChaosCSV(&csvBuf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2 rows:\n%s", len(lines), csvBuf.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,policy,fan_level") {
		t.Fatalf("bad csv header: %s", lines[0])
	}
}
