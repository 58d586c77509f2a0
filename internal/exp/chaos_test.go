package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// chaosEnv is a millisecond-scale environment for sweep tests.
func chaosEnv() *Env {
	e := NewEnv()
	e.Scale = 0.001
	e.MaxWarmStarts = 1
	return e
}

func TestChaosSweepSmall(t *testing.T) {
	e := chaosEnv()
	res, err := e.ChaosContext(context.Background(), ChaosOptions{
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
	var buf bytes.Buffer
	WriteChaos(&buf, res)
	checkDigest(t, "chaos", buf.Bytes())
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
