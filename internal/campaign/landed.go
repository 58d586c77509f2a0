package campaign

import (
	"context"
	"fmt"

	"tecfan/internal/daemon"
	"tecfan/internal/pool"
)

// IneffectiveError reports an episode whose scheduled faults did not land:
// a restart that fired after the job had finished, a partition no call ever
// crossed, a NaN no solver step consumed. Such an episode tested nothing, so
// it is not a pass; drivers treat it like an infrastructure error and never
// shrink it or write it out as a repro.
type IneffectiveError struct {
	// Fault names the fault that left no evidence, and why.
	Fault string
}

func (e *IneffectiveError) Error() string { return "ineffective schedule: " + e.Fault }

// Landed checks an episode's history for evidence that every fault in the
// effective spec landed on live work. It is an episode-validity check, not an
// oracle: a clean verdict from the catalog only means something when this
// returns nil (see Judge). The evidence rules, one per client-observable
// fault:
//
//   - every scheduled proc action was applied, and each kill, stop or restart
//     found at least one job in flight (ProcEvent.InFlight);
//   - a pool worker kill or stop left at least one lease expire in the ledger;
//   - a net schedule made at least one client call fail or retry;
//   - a num schedule left at least one result whose numeric_health journal
//     declares activity;
//   - a disk crash_at_op power cut took the daemon down while a job was still
//     in flight.
//
// Probabilistic disk rules and clock rules are exempt: nothing the client
// observes shows them yet.
func Landed(spec Spec, h *History) error {
	miss := func(format string, args ...any) error {
		return &IneffectiveError{Fault: fmt.Sprintf(format, args...)}
	}
	if len(h.Procs) != len(spec.Procs) {
		return miss("procs: %d actions scheduled, %d applied", len(spec.Procs), len(h.Procs))
	}
	workerDisrupted := false
	for _, p := range h.Procs {
		if p.Action == ActCont {
			continue
		}
		if p.InFlight == 0 {
			return miss("%s %s (history seq %d): no job was in flight", p.Action, p.Target, p.Seq)
		}
		if p.Target != TargetDaemon && (p.Action == ActKill || p.Action == ActStop) {
			workerDisrupted = true
		}
	}
	if workerDisrupted && !hasLeaseEvent(h.Leases, pool.EventExpire) {
		return miss("pool: a worker was killed or stopped but no lease expired")
	}
	if spec.Net != nil && !anyCallFailed(h.Calls) {
		return miss("net: no client call saw a transport error or a retry")
	}
	if spec.Num != nil && !anyJournalActivity(h.Results) {
		return miss("num: no result's numeric_health journal declares activity")
	}
	if spec.Disk != nil && spec.Disk.CrashAtOp > 0 {
		cut := false
		for _, p := range h.Procs {
			if p.PowerCut {
				if p.InFlight < 1 {
					return miss("disk crash_at_op %d: the power cut landed with no job in flight", spec.Disk.CrashAtOp)
				}
				cut = true
			}
		}
		if !cut {
			return miss("disk crash_at_op %d: the daemon never exited on its power cut", spec.Disk.CrashAtOp)
		}
	}
	return nil
}

// InFlight counts the non-terminal jobs in a GET /jobs listing.
func InFlight(views []daemon.JobView) int {
	n := 0
	for _, v := range views {
		if !terminal(v.State) {
			n++
		}
	}
	return n
}

func hasLeaseEvent(ledger []pool.LeaseEvent, event string) bool {
	for _, e := range ledger {
		if e.Event == event {
			return true
		}
	}
	return false
}

func anyCallFailed(calls []Call) bool {
	for _, c := range calls {
		if c.Err != "" || c.Retry > 0 {
			return true
		}
	}
	return false
}

func anyJournalActivity(results []ResultRecord) bool {
	for _, r := range results {
		if journalDeclaresActivity(r.Result) {
			return true
		}
	}
	return false
}

// Judge is the full verdict on one episode. An oracle violation is a finding
// whether or not every fault landed: an invariant broke, and a bug can be
// the very reason a fault left no evidence (a lease that never expires hides
// the expire the pool rule looks for). Only a violation-free episode is
// checked for validity: if a fault missed, Judge returns its
// *IneffectiveError instead of a pass, and there is nothing to shrink or
// commit as a repro.
func Judge(spec Spec, h *History, ref map[string][]byte) ([]Violation, error) {
	if vs := Evaluate(h, ref); len(vs) > 0 {
		return vs, nil
	}
	return nil, Landed(spec, h)
}

// EpisodePredicate adapts an episode runner into the minimizer's Predicate: a
// candidate fails when its episode completes and at least one oracle fires.
// A candidate that errors, or is clean, counts as non-failing — including a
// clean candidate whose faults missed, so an ineffective episode never
// reaches the shrinker as a failure.
func EpisodePredicate(run func(context.Context, Spec) (*History, error), ref map[string][]byte, logf func(string, ...any)) Predicate {
	return func(ctx context.Context, s Spec) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		h, err := run(ctx, s)
		if err != nil {
			logf("shrink candidate errored (%v): treated as non-failing", err)
			return false, nil
		}
		vs, err := Judge(s.ForEpisode(0), h, ref)
		if err != nil {
			logf("shrink candidate: %v: treated as non-failing", err)
		}
		return len(vs) > 0, nil
	}
}
