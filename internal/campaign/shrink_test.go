package campaign

import (
	"context"
	"errors"
	"testing"

	"tecfan/internal/daemon"
	"tecfan/internal/diskfault"
	"tecfan/internal/netfault"
	"tecfan/internal/numfault"
	"tecfan/internal/schedfile"
)

// hasNumRuleFrom reports whether the spec carries a num rule starting at
// exactly step from — the synthetic "bug trigger" the shrink tests plant.
func hasNumRuleFrom(s Spec, from int) bool {
	if s.Num == nil {
		return false
	}
	for _, r := range s.Num.Rules {
		if r.FromStep == from {
			return true
		}
	}
	return false
}

// TestMinimizePlantedRulesToCore is the satellite acceptance test: a 12-rule
// failing schedule whose failure needs exactly two of the rules (FromStep 40
// and FromStep 77, a planted interaction) must minimize to those two rules
// and nothing else — the extra job, the net schedule, and the disk rules all
// drop away.
func TestMinimizePlantedRulesToCore(t *testing.T) {
	spec := Spec{
		Name: "planted",
		Seed: 7,
		Jobs: []daemon.JobSpec{traceJob("a"), traceJob("b")},
		Net: &netfault.Schedule{Base: netfault.Fault{Drop: 0.2}, Windows: []netfault.Window{
			{From: 0, To: schedfile.Duration(1e9), Partition: true},
		}},
		Disk: &diskfault.Schedule{Seed: 3, Rules: []diskfault.Rule{
			{Action: diskfault.ActEIO, Prob: 0.1},
			{Action: diskfault.ActLieSync},
		}},
		Num: &numfault.Schedule{Seed: 5},
	}
	for i := 0; i < 12; i++ {
		from := 10 * (i + 1) // 10, 20, ..., 120
		if i == 6 {
			from = 77 // second half of the planted core
		}
		spec.Num.Rules = append(spec.Num.Rules, numfault.Rule{
			Target: "temps", Action: "nan", Index: i,
			FromStep: from, ToStep: from + 1,
		})
	}
	if !hasNumRuleFrom(spec, 40) || !hasNumRuleFrom(spec, 77) {
		t.Fatal("test setup: planted core missing")
	}

	runs := 0
	pred := func(_ context.Context, s Spec) (bool, error) {
		runs++
		return hasNumRuleFrom(s, 40) && hasNumRuleFrom(s, 77), nil
	}
	got, stats, err := Minimize(context.Background(), spec, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got.Num == nil || len(got.Num.Rules) != 2 {
		t.Fatalf("want exactly the 2-rule core, got %+v", got.Num)
	}
	if !hasNumRuleFrom(got, 40) || !hasNumRuleFrom(got, 77) {
		t.Fatalf("wrong rules survived: %+v", got.Num.Rules)
	}
	if got.Net != nil || got.Disk != nil || len(got.Jobs) != 1 || got.Procs != nil {
		t.Fatalf("irrelevant atoms survived minimization: %s", got.Canonical())
	}
	if got.Num.Seed != 5 {
		t.Fatalf("minimization must never touch seeds, got %d", got.Num.Seed)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("minimized spec must validate: %v", err)
	}
	if stats.AtomsAfter != 2 {
		t.Fatalf("stats.AtomsAfter = %d, want 2", stats.AtomsAfter)
	}
	if stats.Runs != runs {
		t.Fatalf("stats.Runs = %d but predicate ran %d times", stats.Runs, runs)
	}
}

// TestPredicateCache: repeated candidates (ddmin revisits subsets as its
// granularity changes) must hit the canonical-JSON cache, and invalid
// candidates must count as non-failing without a predicate run.
func TestPredicateCache(t *testing.T) {
	runs := 0
	m := &minimizer{cache: map[string]bool{}, pred: func(context.Context, Spec) (bool, error) {
		runs++
		return true, nil
	}}
	spec := Spec{Jobs: []daemon.JobSpec{traceJob("a")}}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		ok, err := m.fails(ctx, spec)
		if err != nil || !ok {
			t.Fatalf("fails() = %v, %v", ok, err)
		}
	}
	if runs != 1 || m.stats.Runs != 1 || m.stats.CacheHits != 2 {
		t.Fatalf("runs=%d stats=%+v; want 1 run, 2 cache hits", runs, m.stats)
	}
	invalid := Spec{} // no jobs
	if ok, err := m.fails(ctx, invalid); err != nil || ok {
		t.Fatalf("invalid candidate must be non-failing, got %v, %v", ok, err)
	}
	if runs != 1 {
		t.Fatal("invalid candidates must never reach the predicate")
	}
}

// TestMinimizeHalvesWindowToTrigger: a single wide step window whose failure
// is really a single step (500) inside it must narrow to exactly [500, 501).
func TestMinimizeHalvesWindowToTrigger(t *testing.T) {
	spec := Spec{
		Name: "wide-window",
		Jobs: []daemon.JobSpec{traceJob("a")},
		Num: &numfault.Schedule{Seed: 5, Rules: []numfault.Rule{
			{Target: "temps", Action: "nan", FromStep: 0, ToStep: 1000},
		}},
	}
	pred := func(_ context.Context, s Spec) (bool, error) {
		if s.Num == nil {
			return false, nil
		}
		for _, r := range s.Num.Rules {
			if r.FromStep <= 500 && (r.ToStep == 0 || 500 < r.ToStep) {
				return true, nil
			}
		}
		return false, nil
	}
	got, stats, err := Minimize(context.Background(), spec, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Num.Rules) != 1 {
		t.Fatalf("want 1 rule, got %+v", got.Num)
	}
	r := got.Num.Rules[0]
	if r.FromStep != 500 || r.ToStep != 501 {
		t.Fatalf("window must converge on the trigger step: got [%d, %d), want [500, 501)", r.FromStep, r.ToStep)
	}
	if stats.Halvings == 0 {
		t.Fatal("halving steps should have been counted")
	}
}

// TestMinimizeKeepsChoreographyLegal: when the failure needs the daemon
// restart, ddmin must not strand an unmatched kill — candidates that fail
// Validate count as non-failing, so the surviving proc set is always legal.
func TestMinimizeKeepsChoreographyLegal(t *testing.T) {
	spec := compoundSpec()
	spec.Disk.Seed, spec.Num.Seed, spec.Net.Seed = 1, 1, 1 // deterministic predicate input
	pred := func(_ context.Context, s Spec) (bool, error) {
		for _, p := range s.Procs {
			if p.Target == TargetDaemon && p.Action == ActRestart {
				return true, nil
			}
		}
		return false, nil
	}
	got, stats, err := Minimize(context.Background(), spec, pred)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("minimized spec must validate: %v", err)
	}
	if len(got.Procs) != 1 || got.Procs[0].Action != ActRestart {
		t.Fatalf("want just the restart action, got %+v", got.Procs)
	}
	if got.Net != nil || got.Disk != nil || got.Num != nil || got.Pool != nil {
		t.Fatalf("irrelevant lattice survived: %s", got.Canonical())
	}
	// Timeline halving: an existence-only failure lets the restart slide to
	// the episode start, making the repro as fast as possible to replay.
	if got.Procs[0].At > 1 {
		t.Fatalf("timeline halving should have pulled At to <= 1ns, got %d", got.Procs[0].At)
	}
	if stats.Halvings == 0 {
		t.Fatal("timeline halvings should have been counted")
	}
}

func TestMinimizeRejectsGreenSpec(t *testing.T) {
	spec := Spec{Jobs: []daemon.JobSpec{traceJob("a")}}
	_, _, err := Minimize(context.Background(), spec,
		func(context.Context, Spec) (bool, error) { return false, nil })
	if err == nil {
		t.Fatal("minimizing a non-failing spec must error, not shrink it to nothing")
	}
}

func TestMinimizeHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec{
		Jobs: []daemon.JobSpec{traceJob("a")},
		Num: &numfault.Schedule{Seed: 5, Rules: []numfault.Rule{
			{Target: "temps", Action: "nan", FromStep: 1, ToStep: 2},
		}},
	}
	_, _, err := Minimize(ctx, spec,
		func(context.Context, Spec) (bool, error) { return true, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
