package campaign

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"time"

	"tecfan/internal/clockfault"
	"tecfan/internal/daemon"
	"tecfan/internal/diskfault"
	"tecfan/internal/netfault"
	"tecfan/internal/numfault"
	"tecfan/internal/schedfile"
)

func traceJob(id string) daemon.JobSpec {
	return daemon.JobSpec{
		ID: id, Kind: daemon.KindTrace,
		Bench: "cholesky", Threads: 16, Scale: 0.001, Policy: "TECfan-FT", Seed: 7,
	}
}

// compoundSpec exercises every axis at once: two jobs, a pool, network
// windows, disk rules, numeric rules, and a proc timeline that stays legal
// (the stopped worker resumes, the killed daemon restarts).
func compoundSpec() Spec {
	return Spec{
		Name: "compound",
		Seed: 42,
		Jobs: []daemon.JobSpec{traceJob("a"), traceJob("b")},
		Pool: &PoolSpec{Workers: 2},
		Net: &netfault.Schedule{
			Base: netfault.Fault{Drop: 0.1},
			Windows: []netfault.Window{
				{From: 0, To: schedfile.Duration(1e9), Partition: true},
			},
		},
		Disk: &diskfault.Schedule{Rules: []diskfault.Rule{
			{Action: diskfault.ActEIO, Prob: 0.5},
		}},
		Num: &numfault.Schedule{Rules: []numfault.Rule{
			{Target: "temps", Action: "nan", Index: 0, FromStep: 10, ToStep: 11},
		}},
		Clock: &clockfault.Schedule{Rules: []clockfault.Rule{
			{Kind: clockfault.KindStep, Proc: "daemon", AtOp: 1,
				Offset: schedfile.Duration(-90 * time.Second)},
			{Kind: clockfault.KindDrift, Proc: "crucible-w*", FromOp: 1, Rate: 0.5},
		}},
		Procs: []ProcAction{
			{At: schedfile.Duration(2e9), Target: "worker:0", Action: ActStop},
			{At: schedfile.Duration(3e9), Target: "worker:0", Action: ActCont},
			{At: schedfile.Duration(4e9), Target: TargetDaemon, Action: ActKill},
			{At: schedfile.Duration(5e9), Target: TargetDaemon, Action: ActRestart},
		},
	}
}

func TestValidateAcceptsCompound(t *testing.T) {
	if err := compoundSpec().Validate(); err != nil {
		t.Fatalf("compound spec should validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no jobs", func(s *Spec) { s.Jobs = nil }, "at least one job"},
		{"missing id", func(s *Spec) { s.Jobs[0].ID = "" }, "explicit id"},
		{"bad id", func(s *Spec) { s.Jobs[0].ID = "bad id!" }, "invalid id"},
		{"duplicate id", func(s *Spec) { s.Jobs[1].ID = s.Jobs[0].ID }, "duplicate id"},
		{"bad kind", func(s *Spec) { s.Jobs[0].Kind = "mystery" }, "unknown kind"},
		{"no bench", func(s *Spec) { s.Jobs[0].Bench = "" }, "bench is required"},
		{"bad policy", func(s *Spec) { s.Jobs[0].Policy = "YOLO" }, "unknown policy"},
		{"bad scenario", func(s *Spec) { s.Jobs[0].Scenario = "gremlins" }, "unknown scenario"},
		{"bad scenarios entry", func(s *Spec) { s.Jobs[0].Scenarios = []string{"gremlins"} }, "unknown scenario"},
		{"zero workers", func(s *Spec) { s.Pool.Workers = 0 }, "pool.workers"},
		{"bad net", func(s *Spec) { s.Net.Base.Drop = 2 }, "campaign: net:"},
		{"bad disk rule", func(s *Spec) { s.Disk.Rules[0].Action = "melt" }, "campaign: disk:"},
		{"bad num rule", func(s *Spec) { s.Num.Rules[0].Action = "melt" }, "campaign: num:"},
		{"negative timeout", func(s *Spec) { s.Timeout = -1 }, "timeout"},
		{"bad proc action", func(s *Spec) { s.Procs[0].Action = "defenestrate" }, "unknown action"},
		{"bad proc target", func(s *Spec) { s.Procs[0].Target = "coffee" }, `target "coffee"`},
		{"worker target without pool", func(s *Spec) { s.Pool = nil }, "without a pool spec"},
		{"worker index out of range", func(s *Spec) { s.Procs[0].Target = "worker:7" }, "out of range"},
		{"daemon never restarted", func(s *Spec) { s.Procs = s.Procs[:3] }, "daemon ends the timeline dead"},
		{"worker never resumed", func(s *Spec) {
			s.Procs = s.Procs[:1]
			s.Procs[0].Target = "worker:0"
			s.Pool.Workers = 1
		}, "every worker ends the timeline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := compoundSpec()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("want validation error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestChoreographyOrderIsByAt: proc choreography must replay in timeline
// order, not spec order — a restart listed first but scheduled last still
// saves a kill listed last but scheduled first.
func TestChoreographyOrderIsByAt(t *testing.T) {
	s := compoundSpec()
	s.Procs = []ProcAction{
		{At: schedfile.Duration(5e9), Target: TargetDaemon, Action: ActRestart},
		{At: schedfile.Duration(2e9), Target: TargetDaemon, Action: ActKill},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("kill-then-restart by At should validate: %v", err)
	}
	s.Procs[0].At, s.Procs[1].At = s.Procs[1].At, s.Procs[0].At
	if err := s.Validate(); err == nil {
		t.Fatal("restart-then-kill by At must be rejected: the daemon ends dead")
	}
}

func TestForEpisodeDerivesOnlyZeroSeeds(t *testing.T) {
	s := compoundSpec()
	s.Num.Seed = 999 // pinned: a minimized repro must keep its exact draws

	e0 := s.ForEpisode(0)
	e1 := s.ForEpisode(1)
	if e0.Num.Seed != 999 || e1.Num.Seed != 999 {
		t.Fatalf("pinned num seed was overridden: %d / %d", e0.Num.Seed, e1.Num.Seed)
	}
	if e0.Disk.Seed == 0 || e0.Net.Seed == 0 {
		t.Fatal("zero seeds must be derived to non-zero")
	}
	if e0.Disk.Seed == e1.Disk.Seed || e0.Net.Seed == e1.Net.Seed {
		t.Fatal("different episodes must derive different seeds")
	}
	if e0.Disk.Seed == e0.Net.Seed {
		t.Fatal("different injectors must derive different seeds")
	}
	again := s.ForEpisode(0)
	if again.Disk.Seed != e0.Disk.Seed || again.Net.Seed != e0.Net.Seed {
		t.Fatal("seed derivation must be deterministic")
	}
	if s.Disk.Seed != 0 || s.Net.Seed != 0 {
		t.Fatal("ForEpisode must not mutate the input spec")
	}
}

// TestBaselineProxySeedsUnchanged pins the proxy seeds of the baseline
// campaign's first five episodes. The net seed used to live in a spec field
// beside the schedule and now lives in it; the literals are the values that
// field held, so every episode's connection draws stay the same.
func TestBaselineProxySeedsUnchanged(t *testing.T) {
	s, err := LoadSpec("../../testdata/crucible/campaigns/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{
		-8654624963561205626,
		2146539290971248399,
		-5397532827454833932,
		3577103011635453627,
		-3503085819235306686,
	}
	for ep, w := range want {
		got := s.ForEpisode(ep).Net.Seed
		if derived := deriveSeed(s.Seed, ep, saltNet); got != derived || got != w {
			t.Errorf("episode %d: net seed %d, derived %d, want %d", ep, got, derived, w)
		}
	}
}

// TestPinnedProxySeedLoads: the corpus entry that pins its proxy seed keeps
// it through LoadCorpus and ForEpisode.
func TestPinnedProxySeedLoads(t *testing.T) {
	entries, err := LoadCorpus("../../testdata/crucible")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Spec.Name != "partition-submit" {
			continue
		}
		if got := e.Spec.ForEpisode(0).Net.Seed; got != 555 {
			t.Fatalf("partition-submit net seed %d, want the pinned 555", got)
		}
		return
	}
	t.Fatal("corpus entry partition-submit not found")
}

func TestWithoutFaultsStripsTheLattice(t *testing.T) {
	ref := compoundSpec().WithoutFaults()
	if ref.Net != nil || ref.Disk != nil || ref.Num != nil || ref.Procs != nil || ref.Pool != nil {
		t.Fatalf("WithoutFaults left lattice behind: %+v", ref)
	}
	if len(ref.Jobs) != 2 {
		t.Fatalf("WithoutFaults must keep the jobs, got %d", len(ref.Jobs))
	}
	if err := ref.Validate(); err != nil {
		t.Fatalf("reference spec should validate: %v", err)
	}
}

// TestIdempotencyKeyFitsDaemonRule: derived keys must satisfy the daemon's
// Idempotency-Key token rule or every crucible submission would 400.
func TestIdempotencyKeyFitsDaemonRule(t *testing.T) {
	tokenRe := regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)
	for _, key := range []string{
		IdempotencyKey("compound", 0, "a"),
		IdempotencyKey("", 12, "job_41-x"),
	} {
		if !tokenRe.MatchString(key) {
			t.Fatalf("key %q violates the daemon token rule", key)
		}
	}
	if IdempotencyKey("c", 0, "a") == IdempotencyKey("c", 1, "a") {
		t.Fatal("episodes must not share keys")
	}
}

func TestLoadSpecErrorsCarryPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"jobs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSpec(path)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("LoadSpec error %q should carry the file path", err)
	}

	good := compoundSpec()
	goodPath := filepath.Join(dir, "good.json")
	if err := WriteEntry(goodPath, Entry{Spec: good}); err != nil {
		t.Fatal(err)
	}
	e, err := LoadEntry(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	if e.Episodes != 1 {
		t.Fatalf("LoadEntry must default episodes to 1, got %d", e.Episodes)
	}
	if string(e.Spec.Canonical()) != string(good.Canonical()) {
		t.Fatal("corpus round-trip changed the spec")
	}
}

func TestLoadCorpus(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCorpus(dir); err == nil {
		t.Fatal("empty corpus must be an error, not a silent green replay")
	}
	for _, name := range []string{"b.json", "a.json"} {
		if err := WriteEntry(filepath.Join(dir, name), Entry{Note: name, Spec: compoundSpec()}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Note != "a.json" || entries[1].Note != "b.json" {
		t.Fatalf("corpus order must be lexical by name: %+v", entries)
	}
	if entries[0].Episodes != 1 {
		t.Fatalf("episodes must default to 1, got %d", entries[0].Episodes)
	}

	// The committed corpus loads and validates entry by entry: CI replays
	// exactly these.
	committed, err := LoadCorpus(filepath.Join("..", "..", "testdata", "crucible"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range committed {
		names[strings.TrimSuffix(filepath.Base(e.Path), ".json")] = true
	}
	for _, want := range []string{
		"clock-freeze-lease-expiry", "clock-skew-lease-safety",
		"partition-idempotent-submit", "persistent-nan-failsafe",
		"pool-partitioned-restart", "pool-worker-fencing", "power-cut-resume",
		"restart-resume-identity", "transient-nan-recovery",
	} {
		if !names[want] {
			t.Errorf("committed corpus lacks %s.json (have %v)", want, names)
		}
	}
	if _, err := LoadSpec(filepath.Join("..", "..", "testdata", "crucible", "campaigns", "baseline.json")); err != nil {
		t.Fatal(err)
	}
}
