package campaign

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tecfan/internal/daemon"
	"tecfan/internal/diskfault"
	"tecfan/internal/netfault"
	"tecfan/internal/numfault"
	"tecfan/internal/pool"
	"tecfan/internal/schedfile"
)

// activeJournal is a result document whose numeric_health journal owns up
// to one recovered step.
var activeJournal = []byte(`{"metrics":{"e":1.5},"numeric_health":{"recovered_steps":1}}`)

// TestLanded gives each evidence rule one synthetic episode whose fault
// landed and one whose fault did not.
func TestLanded(t *testing.T) {
	oneJob := []daemon.JobSpec{traceJob("a")}
	restart := []ProcAction{{At: schedfile.Duration(1e9), Target: TargetDaemon, Action: ActRestart}}
	fencing := Spec{
		Jobs: oneJob,
		Pool: &PoolSpec{Workers: 2},
		Procs: []ProcAction{
			{At: schedfile.Duration(1e8), Target: "worker:0", Action: ActKill},
			{At: schedfile.Duration(2e8), Target: "worker:1", Action: ActStop},
			{At: schedfile.Duration(3e9), Target: "worker:1", Action: ActCont},
		},
	}
	fencingProcs := func(inFlight int) []ProcEvent {
		return []ProcEvent{
			{Seq: 7, Target: "worker:0", Action: ActKill, InFlight: inFlight},
			{Seq: 8, Target: "worker:1", Action: ActStop, InFlight: inFlight},
			{Seq: 9, Target: "worker:1", Action: ActCont},
		}
	}
	grantExpire := []pool.LeaseEvent{
		{Seq: 0, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "crucible-w0", Token: 1},
		{Seq: 1, Event: pool.EventExpire, JobID: "a", ShardID: "s0", Worker: "crucible-w0", Token: 1},
		{Seq: 2, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "crucible-w1", Token: 2},
	}
	powerCut := Spec{
		Jobs:  oneJob,
		Disk:  &diskfault.Schedule{CrashAtOp: 150},
		Procs: restart,
	}

	for _, tc := range []struct {
		name string
		spec Spec
		h    History
		miss string // empty: the episode is effective
	}{
		{"proc restart on live work", Spec{Jobs: oneJob, Procs: restart},
			History{Procs: []ProcEvent{{Seq: 3, Target: TargetDaemon, Action: ActRestart, InFlight: 1}}}, ""},
		{"proc restart after the job finished", Spec{Jobs: oneJob, Procs: restart},
			History{Procs: []ProcEvent{{Seq: 9, Target: TargetDaemon, Action: ActRestart, InFlight: 0}}},
			"restart daemon (history seq 9): no job was in flight"},
		{"proc action never applied", Spec{Jobs: oneJob, Procs: restart},
			History{}, "procs: 1 actions scheduled, 0 applied"},
		{"pool kill and stop expire a lease", fencing,
			History{Procs: fencingProcs(1), Leases: grantExpire}, ""},
		{"pool kill and stop on idle workers", fencing,
			History{Procs: fencingProcs(1), Leases: grantExpire[:1]},
			"pool: a worker was killed or stopped but no lease expired"},
		{"net call retried", Spec{Jobs: oneJob, Net: &netfault.Schedule{}},
			History{Calls: []Call{{Seq: 1, Method: "POST", Path: "/jobs", Retry: 1, Status: 202}}}, ""},
		{"net call failed", Spec{Jobs: oneJob, Net: &netfault.Schedule{}},
			History{Calls: []Call{{Seq: 1, Method: "GET", Path: "/jobs/a", Err: "connection reset"}}}, ""},
		{"net never touched a call", Spec{Jobs: oneJob, Net: &netfault.Schedule{}},
			History{Calls: []Call{{Seq: 1, Method: "POST", Path: "/jobs", Status: 202}}},
			"net: no client call saw a transport error or a retry"},
		{"num journal declares activity", Spec{Jobs: oneJob, Num: &numfault.Schedule{}},
			History{Results: []ResultRecord{{JobID: "a", State: "done", Result: activeJournal}}}, ""},
		{"num upset never consumed", Spec{Jobs: oneJob, Num: &numfault.Schedule{}},
			History{Results: []ResultRecord{{JobID: "a", State: "done", Result: []byte(`{"numeric_health":{}}`)}}},
			"num: no result's numeric_health journal declares activity"},
		{"disk power cut mid-job", powerCut,
			History{Procs: []ProcEvent{{Seq: 4, Target: TargetDaemon, Action: ActRestart, InFlight: 1, PowerCut: true}}}, ""},
		{"disk power cut never fired", powerCut,
			History{Procs: []ProcEvent{{Seq: 4, Target: TargetDaemon, Action: ActRestart, InFlight: 1}}},
			"disk crash_at_op 150: the daemon never exited on its power cut"},
		{"disk power cut after the job finished", powerCut,
			History{Procs: []ProcEvent{{Seq: 4, Target: TargetDaemon, Action: ActRestart, InFlight: -1, PowerCut: true}}},
			"disk crash_at_op 150: the power cut landed with no job in flight"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Landed(tc.spec, &tc.h)
			if tc.miss == "" {
				if err != nil {
					t.Fatalf("effective episode judged ineffective: %v", err)
				}
				return
			}
			var ie *IneffectiveError
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v, want an *IneffectiveError", err)
			}
			if want := "ineffective schedule: " + tc.miss; err.Error() != want {
				t.Fatalf("err = %q, want %q", err, want)
			}
		})
	}
}

// TestLandedExemptsUnobservableFaults: probabilistic disk rules and clock
// rules leave nothing a client can observe, so they never make an episode
// ineffective.
func TestLandedExemptsUnobservableFaults(t *testing.T) {
	s := compoundSpec()
	s.Net, s.Num, s.Procs, s.Pool = nil, nil, nil, nil
	if err := Landed(s, &History{}); err != nil {
		t.Fatalf("disk rules and clock rules must be exempt, got %v", err)
	}
}

// TestIneffectiveEpisodeIsNeverShrunk: a clean episode whose faults missed
// is judged ineffective, not passed, and a minimizer fed such episodes
// refuses to start instead of shrinking them into a repro.
func TestIneffectiveEpisodeIsNeverShrunk(t *testing.T) {
	spec := Spec{
		Name: "missed", Seed: 1,
		Jobs: []daemon.JobSpec{traceJob("a")},
		Net:  &netfault.Schedule{Seed: 1, Base: netfault.Fault{Drop: 0.1}},
	}
	// Oracle-clean, but no call ever saw the network fault.
	h, ref := greenHistory()
	vs, err := Judge(spec, h, ref)
	var ie *IneffectiveError
	if !errors.As(err, &ie) || len(vs) != 0 {
		t.Fatalf("Judge = %v, %v; want no violations and an *IneffectiveError", vs, err)
	}

	runs := 0
	run := func(context.Context, Spec) (*History, error) {
		runs++
		return h, nil
	}
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, format) }
	_, _, err = Minimize(context.Background(), spec, EpisodePredicate(run, ref, logf))
	if err == nil || !strings.Contains(err.Error(), "does not fail the predicate") {
		t.Fatalf("Minimize over an ineffective episode = %v; want it refused", err)
	}
	if runs != 1 || len(logged) != 1 {
		t.Fatalf("want one episode run and one logged miss, got %d runs, %d log lines", runs, len(logged))
	}
}

// TestJudgeReportsViolationsOverMisses: a broken invariant is a finding even
// when a fault left no evidence — a lease that never expires is both the
// bug and the reason the pool rule finds no expire.
func TestJudgeReportsViolationsOverMisses(t *testing.T) {
	spec := Spec{
		Jobs:  []daemon.JobSpec{traceJob("a")},
		Pool:  &PoolSpec{Workers: 2},
		Procs: []ProcAction{{At: schedfile.Duration(3e8), Target: "worker:0", Action: ActKill}},
	}
	// The killed worker's lease never expired and the job stranded.
	h := &History{
		Submissions: []Submission{{Seq: 1, JobID: "a", Key: "k", ReturnedID: "a"}},
		Procs:       []ProcEvent{{Seq: 2, Target: "worker:0", Action: ActKill, InFlight: 1}},
		Results:     []ResultRecord{{Seq: 3, JobID: "a", State: "running"}},
		Jobs:        []daemon.JobView{{ID: "a", State: daemon.StateRunning}},
	}
	if Landed(spec, h) == nil {
		t.Fatal("the synthetic history must miss the pool evidence rule")
	}
	vs, err := Judge(spec, h, nil)
	if err != nil {
		t.Fatalf("Judge = %v; a violating episode is a finding, not an ineffective one", err)
	}
	wantOracle(t, vs, OracleBoundedLiveness, "never reached a terminal result")
}
