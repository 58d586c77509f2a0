package exp

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"tecfan/internal/fault"
	"tecfan/internal/sim"
	"tecfan/internal/workload"
)

// resumeEnv builds a fresh millisecond-scale fault-injected environment.
// Every call returns an independent but identically-configured instance, so
// the reference run, the interrupted run, and the resumed run never share
// mutable state.
func resumeEnv(t *testing.T, scenario string) *Env {
	t.Helper()
	e := NewEnv()
	// Big enough that a run spans ~10 control periods (so mid-run checkpoint
	// boundaries actually occur), small enough to stay test-sized.
	e.Scale = 0.2
	e.MaxWarmStarts = 1
	if scenario != "" {
		sc, err := fault.ByName(scenario)
		if err != nil {
			t.Fatal(err)
		}
		e.Faults = &sc
		e.FaultSeed = 11
	}
	return e
}

func resumeConfig(t *testing.T, e *Env) sim.Config {
	t.Helper()
	b, err := workload.ByName("cholesky", 16, e.Leak)
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.SimConfig(e.Scaled(b), 72, 0)
	cfg.RecordTrace = true
	return cfg
}

// TestResumeBitwiseIdentical is the crash-safety contract: interrupt a run at
// a checkpoint, serialize the snapshot the way the daemon does (gob through
// the envelope boundary), rebuild everything from scratch, resume — and the
// combined trace, metrics, and final temperatures must equal the
// uninterrupted run bit for bit. The fault-tolerant controller runs under
// active fault injection so its fault log, de-rating counters, and the
// injector's RNG stream all have to survive the round trip.
func TestResumeBitwiseIdentical(t *testing.T) {
	for _, scenario := range []string{"", "sensor-stuck", "tec-fail-off"} {
		name := scenario
		if name == "" {
			name = "fault-free"
		}
		t.Run(name, func(t *testing.T) {
			// Reference: one uninterrupted run.
			refEnv := resumeEnv(t, scenario)
			refCfg := resumeConfig(t, refEnv)
			refRun, err := sim.NewRunner(refCfg, refEnv.Controllers()["TECfan-FT"])
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refRun.Run()
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted: same configuration, crash at the first checkpoint
			// by failing the OnCheckpoint callback after capturing it.
			var snap *sim.Snapshot
			crash := errors.New("injected crash")
			intEnv := resumeEnv(t, scenario)
			intCfg := resumeConfig(t, intEnv)
			intCfg.CheckpointEvery = 4
			intCfg.OnCheckpoint = func(s *sim.Snapshot) error {
				snap = s
				return crash
			}
			intRun, err := sim.NewRunner(intCfg, intEnv.Controllers()["TECfan-FT"])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := intRun.Run(); !errors.Is(err, crash) {
				t.Fatalf("interrupted run error = %v, want the injected crash", err)
			}
			if snap == nil || snap.StepIdx == 0 {
				t.Fatalf("no mid-run snapshot captured (snap=%+v)", snap)
			}
			if len(snap.Trace) >= len(ref.Trace) {
				t.Fatalf("snapshot at %d trace points is not mid-run (reference has %d)",
					len(snap.Trace), len(ref.Trace))
			}

			// The daemon persists snapshots as gob inside the checkpoint
			// envelope; round-trip through the same encoding so anything gob
			// drops (nil vs empty slices, unexported state) fails here, not
			// in production.
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
				t.Fatalf("snapshot does not gob-encode: %v", err)
			}
			restored := new(sim.Snapshot)
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(restored); err != nil {
				t.Fatalf("snapshot does not gob-decode: %v", err)
			}

			// Resumed: fresh environment, fresh controller, fresh injector.
			resEnv := resumeEnv(t, scenario)
			resCfg := resumeConfig(t, resEnv)
			resRun, err := sim.NewRunner(resCfg, resEnv.Controllers()["TECfan-FT"])
			if err != nil {
				t.Fatal(err)
			}
			res, err := resRun.Resume(context.Background(), restored)
			if err != nil {
				t.Fatal(err)
			}

			if res.Metrics != ref.Metrics {
				t.Errorf("metrics diverge:\nresumed %+v\nref     %+v", res.Metrics, ref.Metrics)
			}
			if len(res.Trace) != len(ref.Trace) {
				t.Fatalf("trace length %d, want %d", len(res.Trace), len(ref.Trace))
			}
			for i := range ref.Trace {
				if res.Trace[i] != ref.Trace[i] {
					t.Fatalf("trace diverges at point %d (snapshot had %d):\nresumed %+v\nref     %+v",
						i, len(snap.Trace), res.Trace[i], ref.Trace[i])
				}
			}
			if len(res.FinalTemps) != len(ref.FinalTemps) {
				t.Fatalf("final temps length %d, want %d", len(res.FinalTemps), len(ref.FinalTemps))
			}
			for i := range ref.FinalTemps {
				if res.FinalTemps[i] != ref.FinalTemps[i] {
					t.Fatalf("final temp %d: %v != %v", i, res.FinalTemps[i], ref.FinalTemps[i])
				}
			}
		})
	}
}

// TestCancellationPrompt asserts the cancellation contract: a canceled run
// stops at the next control boundary, returns its partial result alongside
// the wrapped context error, and emits one final resumable snapshot.
func TestCancellationPrompt(t *testing.T) {
	e := resumeEnv(t, "")
	cfg := resumeConfig(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	var snaps []*sim.Snapshot
	cfg.CheckpointEvery = 1
	cfg.OnCheckpoint = func(s *sim.Snapshot) error {
		snaps = append(snaps, s)
		if len(snaps) == 3 {
			cancel()
		}
		return nil
	}
	r, err := sim.NewRunner(cfg, e.Controllers()["TECfan"])
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Trace) == 0 {
		t.Fatal("cancellation returned no partial result")
	}
	// Canceled inside the 3rd checkpoint → noticed at the 4th boundary, which
	// emits the final snapshot instead of a regular checkpoint.
	if len(snaps) != 4 {
		t.Fatalf("got %d snapshots, want 3 regular + 1 final", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.StepIdx <= snaps[2].StepIdx {
		t.Fatalf("final snapshot step %d does not advance past cancellation point %d",
			last.StepIdx, snaps[2].StepIdx)
	}
	// The final snapshot must be resumable: the rest of the run completes.
	e2 := resumeEnv(t, "")
	cfg2 := resumeConfig(t, e2)
	r2, err := sim.NewRunner(cfg2, e2.Controllers()["TECfan"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Resume(context.Background(), last); err != nil {
		t.Fatalf("resume from cancellation snapshot: %v", err)
	}
}

// TestSweepPartialResults pins the partial-results contract of the sweep
// drivers: on cancellation the accumulated work comes back alongside the
// error, never a nil result.
func TestSweepPartialResults(t *testing.T) {
	t.Run("chaos-row-resume", func(t *testing.T) {
		opt := ChaosOptions{
			Bench: "cholesky", Threads: 16,
			Policies:  []string{"TECfan-FT"},
			Scenarios: []string{"sensor-dropout", "tec-fail-off"},
			Seed:      7,
		}
		full, err := chaosEnv().ChaosContext(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Rows) != 2 {
			t.Fatalf("got %d rows, want 2", len(full.Rows))
		}

		// Interrupt after the first row.
		ctx, cancel := context.WithCancel(context.Background())
		iopt := opt
		iopt.OnRow = func(ChaosRow) { cancel() }
		partial, err := chaosEnv().ChaosContext(ctx, iopt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
		if partial == nil || len(partial.Rows) != 1 {
			t.Fatalf("partial result has %d rows, want exactly the one finished row", len(partial.Rows))
		}

		// Resume from the partial rows: the completed sweep must equal the
		// uninterrupted one exactly.
		ropt := opt
		ropt.Done = partial.Rows
		resumed, err := chaosEnv().ChaosContext(context.Background(), ropt)
		if err != nil {
			t.Fatal(err)
		}
		if len(resumed.Rows) != len(full.Rows) {
			t.Fatalf("resumed sweep has %d rows, want %d", len(resumed.Rows), len(full.Rows))
		}
		for i := range full.Rows {
			if resumed.Rows[i] != full.Rows[i] {
				t.Fatalf("row %d diverges:\nresumed %+v\nfull    %+v", i, resumed.Rows[i], full.Rows[i])
			}
		}
	})

	t.Run("canceled-context-returns-partials", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if out, err := chaosEnv().ChaosContext(ctx, ChaosOptions{Bench: "cholesky", Threads: 16,
			Policies: []string{"TECfan"}, Scenarios: []string{"tec-fail-off"}}); err == nil || out == nil {
			t.Fatalf("chaos under canceled ctx: out=%v err=%v, want non-nil out and error", out, err)
		}
		// Runs at this scale span several control periods, so the pre-canceled
		// context is noticed inside the very first run of each sweep.
		e := resumeEnv(t, "")
		if _, err := e.Table1Opt(ctx, RowOptions[Table1Row]{}); err == nil {
			t.Fatal("table1 under canceled ctx returned no error")
		}
		if out, err := e.Fig56Context(ctx); err == nil || out == nil {
			t.Fatalf("fig56 under canceled ctx: out=%v err=%v, want non-nil out and error", out, err)
		}
	})
}

// TestResumeRejectsMismatchedSnapshot pins snapshot validation: a snapshot
// from a different configuration must be refused, not silently mis-restored.
func TestResumeRejectsMismatchedSnapshot(t *testing.T) {
	e := resumeEnv(t, "")
	cfg := resumeConfig(t, e)
	var snap *sim.Snapshot
	cfg.CheckpointEvery = 1
	stop := errors.New("stop")
	cfg.OnCheckpoint = func(s *sim.Snapshot) error { snap = s; return stop }
	r, err := sim.NewRunner(cfg, e.Controllers()["TECfan"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); !errors.Is(err, stop) {
		t.Fatal(err)
	}
	bad := *snap
	bad.Temps = bad.Temps[:len(bad.Temps)-1]
	if _, err := r.Resume(context.Background(), &bad); err == nil ||
		!strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("mismatched snapshot accepted: %v", err)
	}
	bad2 := *snap
	bad2.FanLevel = 99
	if _, err := r.Resume(context.Background(), &bad2); err == nil {
		t.Fatal("out-of-range fan level accepted")
	}
}
