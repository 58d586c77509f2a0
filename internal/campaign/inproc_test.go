package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"tecfan/internal/daemon"
	"tecfan/internal/diskfault"
	"tecfan/internal/numfault"
	"tecfan/internal/pool"
)

// allKindsSpec carries one job of every kind at tiny scale — the meta-test
// workload.
func allKindsSpec() Spec {
	return Spec{
		Name: "meta",
		Seed: 11,
		Jobs: []daemon.JobSpec{
			{ID: "tr", Kind: daemon.KindTrace, Bench: "cholesky", Threads: 16,
				Scale: 0.001, Policy: "TECfan-FT", Seed: 7},
			{ID: "ch", Kind: daemon.KindChaos, Bench: "cholesky", Threads: 16,
				Scale: 0.001, Policies: []string{"TECfan-FT"},
				Scenarios: []string{"sensor-dropout"}, Seed: 7},
			{ID: "t1", Kind: daemon.KindTable1, Scale: 0.001},
			{ID: "f4", Kind: daemon.KindFig4, Scale: 0.001},
		},
	}
}

// TestEmptyLatticeEpisodeIsByteIdenticalToReference is the crucible's
// self-calibration: with no faults armed, an episode for every job kind must
// be oracle-clean and byte-identical to the in-process reference — otherwise
// the harness itself injects noise and every chaotic verdict is suspect.
func TestEmptyLatticeEpisodeIsByteIdenticalToReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four real jobs twice")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	spec := allKindsSpec()
	logf := t.Logf

	ref, err := Reference(ctx, spec, 0, logf)
	if err != nil {
		t.Fatal(err)
	}
	h, err := RunEpisode(ctx, spec, 0, logf)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Evaluate(h, ref); len(vs) != 0 {
		t.Fatalf("empty-lattice episode must be oracle-clean, got %v", vs)
	}
	if len(h.Results) != len(spec.Jobs) {
		t.Fatalf("want %d results, got %d", len(spec.Jobs), len(h.Results))
	}
	for _, r := range h.Results {
		if r.State != string(daemon.StateDone) {
			t.Fatalf("job %s ended %s: %s", r.JobID, r.State, r.Error)
		}
		if !bytes.Equal(r.Result, ref[r.JobID]) {
			t.Fatalf("job %s: episode result differs from reference:\n%s\nvs\n%s",
				r.JobID, r.Result, ref[r.JobID])
		}
	}
	// Exactly two submissions per job, the replay deduplicated server-side.
	perJob := map[string]int{}
	for _, s := range h.Submissions {
		perJob[s.JobID]++
		if s.Err != "" {
			t.Fatalf("submission of %s failed: %s", s.JobID, s.Err)
		}
	}
	for _, j := range spec.Jobs {
		if perJob[j.ID] != 2 {
			t.Fatalf("job %s submitted %d times, want 2", j.ID, perJob[j.ID])
		}
	}
	dedups := 0
	for _, s := range h.Submissions {
		if s.Deduplicated {
			dedups++
		}
	}
	if dedups != len(spec.Jobs) {
		t.Fatalf("want %d deduplicated replays, got %d", len(spec.Jobs), dedups)
	}
	if len(h.Ready) == 0 || !h.Ready[len(h.Ready)-1].Ready {
		t.Fatalf("daemon should end the episode ready: %+v", h.Ready)
	}
	// Without a pool every job is still a local lease: the ledger holds a
	// grant and a completion per job, and the lease-safety oracle reads it
	// (a copy whose grants never advance their token must fail).
	if len(h.Leases) < 2*len(spec.Jobs) {
		t.Fatalf("episode without a pool recorded %d lease events, want a grant and a completion per job", len(h.Leases))
	}
	doctored := *h
	doctored.Leases = append([]pool.LeaseEvent(nil), h.Leases...)
	for i := range doctored.Leases {
		doctored.Leases[i].Token = 0
	}
	wantOracle(t, checkLeaseSafety(&doctored, ref), OracleLeaseSafety, "did not advance")
}

// TestStrandedJobIsJudgedNotAnError: a job that cannot finish within the
// episode budget is read once more at the stranded-job deadline and handed to
// the bounded-liveness oracle; the episode itself ends without an error.
func TestStrandedJobIsJudgedNotAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a long simulation")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	spec := Spec{Name: "stranded", Seed: 3, Jobs: []daemon.JobSpec{{
		ID: "long", Kind: daemon.KindTrace, Bench: "cholesky", Threads: 16,
		Scale: 400, Policy: "TECfan-FT", Seed: 7,
	}}}
	h, err := RunEpisode(ctx, spec, 0, t.Logf)
	if err != nil {
		t.Fatalf("a stranded job must be judged, not end the episode: %v", err)
	}
	if len(h.Results) != 1 || terminal(daemon.JobState(h.Results[0].State)) {
		t.Fatalf("want the stranded job recorded in its non-terminal state, got %+v", h.Results)
	}
	wantOracle(t, checkBoundedLiveness(h, nil), OracleBoundedLiveness, "never reached a terminal result")
}

// TestInProcPooledEpisode runs a pooled episode (in-process worker loops)
// with a transient numeric upset and checks it stays oracle-clean against
// the plain reference: the FT policy absorbs the one-off upset, declares it
// in numeric_health, and the result-integrity oracle accepts the declared
// divergence.
func TestInProcPooledEpisode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real pooled jobs")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	spec := Spec{
		Name: "pooled",
		Seed: 13,
		Jobs: []daemon.JobSpec{{
			ID: "tr", Kind: daemon.KindTrace, Bench: "cholesky", Threads: 16,
			Scale: 0.001, Policy: "TECfan-FT", Seed: 7,
		}},
		Pool: &PoolSpec{Workers: 2, Chunk: 1},
		Num: &numfault.Schedule{Seed: 21, Rules: []numfault.Rule{
			{Target: "temps", Action: "nan", Index: 0, FromStep: 3, ToStep: 4},
		}},
	}
	logf := t.Logf
	ref, err := Reference(ctx, spec, 0, logf)
	if err != nil {
		t.Fatal(err)
	}
	h, err := RunEpisode(ctx, spec, 0, logf)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Evaluate(h, ref); len(vs) != 0 {
		t.Fatalf("pooled episode with a transient upset must be oracle-clean, got %v", vs)
	}
}

func TestRunEpisodeRejectsExecOnlyFeatures(t *testing.T) {
	ctx := context.Background()
	withProcs := compoundSpec()
	if _, err := RunEpisode(ctx, withProcs, 0, nil); err == nil ||
		!strings.Contains(err.Error(), "proc actions") {
		t.Fatalf("procs must be rejected in-process, got %v", err)
	}
	withCrash := allKindsSpec()
	withCrash.Disk = &diskfault.Schedule{CrashAtOp: 100}
	if _, err := RunEpisode(ctx, withCrash, 0, nil); err == nil ||
		!strings.Contains(err.Error(), "crash_at_op") {
		t.Fatalf("crash_at_op must be rejected in-process, got %v", err)
	}
}
