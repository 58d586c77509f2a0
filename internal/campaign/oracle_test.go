package campaign

import (
	"strings"
	"testing"

	"tecfan/internal/daemon"
	"tecfan/internal/pool"
)

// greenHistory is a violation-free episode: one job submitted twice under one
// key, deduplicated on the replay, done with reference-identical bytes.
func greenHistory() (*History, map[string][]byte) {
	ref := map[string][]byte{"a": []byte(`{"metrics":{"e":1.5}}`)}
	return &History{
		Calls: []Call{
			{Seq: 1, Method: "POST", Path: "/jobs", Status: 202, ReadyState: "ok"},
			{Seq: 2, Method: "POST", Path: "/jobs", Status: 200, ReadyState: "ok"},
		},
		Submissions: []Submission{
			{Seq: 3, JobID: "a", Key: "k", ReturnedID: "a"},
			{Seq: 4, JobID: "a", Key: "k", ReturnedID: "a", Deduplicated: true},
		},
		Results: []ResultRecord{
			{Seq: 5, JobID: "a", State: "done", Result: ref["a"]},
		},
		Ready: []ReadySample{
			{Seq: 6, Incarnation: 0, Ready: true},
		},
		Jobs: []daemon.JobView{{ID: "a", State: daemon.StateDone}},
	}, ref
}

func wantOracle(t *testing.T, vs []Violation, oracle, detail string) {
	t.Helper()
	for _, v := range vs {
		if v.Oracle == oracle && strings.Contains(v.Detail, detail) {
			return
		}
	}
	t.Fatalf("no %s violation mentioning %q in %v", oracle, detail, vs)
}

func TestEvaluateGreenHistory(t *testing.T) {
	h, ref := greenHistory()
	if vs := Evaluate(h, ref); len(vs) != 0 {
		t.Fatalf("green history must produce no violations, got %v", vs)
	}
}

func TestExactlyOnce(t *testing.T) {
	t.Run("failed submission", func(t *testing.T) {
		h, ref := greenHistory()
		h.Submissions[1].Err = "gave up after 4 retries"
		wantOracle(t, Evaluate(h, ref), OracleExactlyOnce, "ultimately failed")
	})
	t.Run("key resolves to two jobs", func(t *testing.T) {
		h, ref := greenHistory()
		h.Submissions[1].ReturnedID = "a2"
		wantOracle(t, Evaluate(h, ref), OracleExactlyOnce, "two jobs")
	})
	t.Run("lost job", func(t *testing.T) {
		h, ref := greenHistory()
		h.Jobs = nil
		wantOracle(t, Evaluate(h, ref), OracleExactlyOnce, "missing from the final job table")
	})
	t.Run("duplicated job", func(t *testing.T) {
		h, ref := greenHistory()
		h.Jobs = append(h.Jobs, h.Jobs[0])
		wantOracle(t, Evaluate(h, ref), OracleExactlyOnce, "2 times")
	})
	t.Run("stranger job", func(t *testing.T) {
		h, ref := greenHistory()
		h.Jobs = append(h.Jobs, daemon.JobView{ID: "ghost", State: daemon.StateDone})
		wantOracle(t, Evaluate(h, ref), OracleExactlyOnce, "never submitted")
	})
}

func TestResultIntegrity(t *testing.T) {
	t.Run("silent divergence", func(t *testing.T) {
		h, ref := greenHistory()
		h.Results[0].Result = []byte(`{"metrics":{"e":1.6}}`)
		wantOracle(t, Evaluate(h, ref), OracleResultIntegrity, "differs from the fault-free reference")
	})
	t.Run("journal-only divergence with declared activity is sanctioned", func(t *testing.T) {
		// Payload identical to the reference; only the numeric_health
		// journal differs, and it accounts for the absorbed upsets.
		h, ref := greenHistory()
		ref["a"] = []byte(`{"metrics":{"e":1.5},"numeric_health":{"recovered_steps":0,"fail_safe":false}}`)
		h.Results[0].Result = []byte(`{"metrics":{"e":1.5},"numeric_health":{"recovered_steps":3,"fail_safe":false}}`)
		if vs := Evaluate(h, ref); len(vs) != 0 {
			t.Fatalf("journal-only divergence with declared recoveries must pass, got %v", vs)
		}
	})
	t.Run("journal-only divergence claiming nothing happened", func(t *testing.T) {
		// The journal differs from the reference yet every counter is zero:
		// a journal that lies about absorbed activity is a violation.
		h, ref := greenHistory()
		ref["a"] = []byte(`{"metrics":{"e":1.5},"numeric_health":{"recovered_steps":0,"held_steps":0,"fail_safe":false}}`)
		h.Results[0].Result = []byte(`{"metrics":{"e":1.5},"numeric_health":{"recovered_steps":0,"fail_safe":false}}`)
		wantOracle(t, Evaluate(h, ref), OracleResultIntegrity, "declares no activity")
	})
	t.Run("payload divergence with an active journal still fails", func(t *testing.T) {
		// Declared recoveries do not excuse a payload that drifted: only
		// fail_safe sanctions metric divergence.
		h, ref := greenHistory()
		h.Results[0].Result = []byte(`{"metrics":{"e":1.6},"numeric_health":{"recovered_steps":3,"fail_safe":false}}`)
		wantOracle(t, Evaluate(h, ref), OracleResultIntegrity, "differs from the fault-free reference")
	})
	t.Run("declared fail-safe is sanctioned", func(t *testing.T) {
		h, ref := greenHistory()
		h.Results[0].Result = []byte(`{"metrics":{"e":9.9},"numeric_health":{"fail_safe":true}}`)
		if vs := Evaluate(h, ref); len(vs) != 0 {
			t.Fatalf("declared fail-safe must pass, got %v", vs)
		}
	})
	t.Run("typed refusal is sanctioned", func(t *testing.T) {
		h, ref := greenHistory()
		h.Results[0] = ResultRecord{Seq: 5, JobID: "a", State: "failed",
			Error: "trace: confirmed numeric divergence at step 41"}
		if vs := Evaluate(h, ref); len(vs) != 0 {
			t.Fatalf("typed refusal must pass, got %v", vs)
		}
	})
	t.Run("arbitrary failure", func(t *testing.T) {
		h, ref := greenHistory()
		h.Results[0] = ResultRecord{Seq: 5, JobID: "a", State: "failed", Error: "segfault adjacent mishap"}
		wantOracle(t, Evaluate(h, ref), OracleResultIntegrity, "without a clean typed refusal")
	})
	t.Run("empty result", func(t *testing.T) {
		h, ref := greenHistory()
		h.Results[0].Result = nil
		wantOracle(t, Evaluate(h, ref), OracleResultIntegrity, "no result bytes")
	})
}

func TestStickyFailSafe(t *testing.T) {
	failSafe := []string{"numeric fail-safe: job a: nan"}
	t.Run("dropped within an incarnation", func(t *testing.T) {
		h, ref := greenHistory()
		h.Results[0].Result = []byte(`{"metrics":{"e":9.9},"numeric_health":{"fail_safe":true}}`)
		h.Ready = []ReadySample{
			{Seq: 6, Incarnation: 0, Ready: false, Reasons: failSafe},
			{Seq: 7, Incarnation: 0, Ready: true},
		}
		wantOracle(t, Evaluate(h, ref), OracleStickyFailSafe, "dropped the fail-safe reason")
	})
	t.Run("reset across a restart is sanctioned", func(t *testing.T) {
		h, ref := greenHistory()
		h.Results[0].Result = []byte(`{"metrics":{"e":9.9},"numeric_health":{"fail_safe":true}}`)
		h.Ready = []ReadySample{
			{Seq: 6, Incarnation: 0, Ready: false, Reasons: failSafe},
			{Seq: 7, Incarnation: 1, Ready: true},
		}
		if vs := Evaluate(h, ref); len(vs) != 0 {
			t.Fatalf("restart legitimately clears the latch, got %v", vs)
		}
	})
}

func TestNoNonFinite(t *testing.T) {
	t.Run("NaN in result", func(t *testing.T) {
		h, ref := greenHistory()
		ref["a"] = []byte(`{"metrics":{"e":NaN}}`)
		h.Results[0].Result = ref["a"] // byte-identical, still a leak
		wantOracle(t, Evaluate(h, ref), OracleNoNonFinite, "non-finite token")
	})
	t.Run("Inf in job error", func(t *testing.T) {
		h, ref := greenHistory()
		h.Jobs[0].Error = "temps blew up to +Inf"
		wantOracle(t, Evaluate(h, ref), OracleNoNonFinite, "non-finite token")
	})
	t.Run("NaN inside a quoted string is prose", func(t *testing.T) {
		h, ref := greenHistory()
		ref["a"] = []byte(`{"metrics":{"e":1.5},"desc":"three die sensors read NaN"}`)
		h.Results[0].Result = ref["a"]
		if vs := Evaluate(h, ref); len(vs) != 0 {
			t.Fatalf("prose mention of NaN in a string value must pass, got %v", vs)
		}
	})
	t.Run("Inf in array value position", func(t *testing.T) {
		h, ref := greenHistory()
		ref["a"] = []byte(`{"temps":[41.2, +Inf, 39.9]}`)
		h.Results[0].Result = ref["a"]
		wantOracle(t, Evaluate(h, ref), OracleNoNonFinite, "non-finite token")
	})
	t.Run("spelled-out diagnosis passes", func(t *testing.T) {
		h, ref := greenHistory()
		ref["a"] = []byte(`{"metrics":{"e":1.5},"numeric_health":{"events":["not-a-number absorbed"]}}`)
		h.Results[0].Result = ref["a"]
		if vs := Evaluate(h, ref); len(vs) != 0 {
			t.Fatalf("spelled-out diagnosis must pass, got %v", vs)
		}
	})
}

func TestReadyConsistency(t *testing.T) {
	t.Run("accepted while draining", func(t *testing.T) {
		h, ref := greenHistory()
		h.Calls[0].ReadyState = "draining"
		wantOracle(t, Evaluate(h, ref), OracleReadyConsistency, "draining")
	})
	t.Run("accepted while storage degraded", func(t *testing.T) {
		h, ref := greenHistory()
		h.Calls[1].ReadyState = "storage degraded: state dir out of space"
		wantOracle(t, Evaluate(h, ref), OracleReadyConsistency, "storage degraded")
	})
	t.Run("rejected while draining is consistent", func(t *testing.T) {
		h, ref := greenHistory()
		h.Calls = append(h.Calls, Call{Seq: 9, Method: "POST", Path: "/jobs", Status: 503, ReadyState: "draining"})
		if vs := Evaluate(h, ref); len(vs) != 0 {
			t.Fatalf("503 while draining is the correct behavior, got %v", vs)
		}
	})
	t.Run("GET while draining is consistent", func(t *testing.T) {
		h, ref := greenHistory()
		h.Calls = append(h.Calls, Call{Seq: 9, Method: "GET", Path: "/jobs/a", Status: 200, ReadyState: "draining"})
		if vs := Evaluate(h, ref); len(vs) != 0 {
			t.Fatalf("reads during drain are fine, got %v", vs)
		}
	})
}

// TestRecorderIncarnation: a daemon restart must bump the incarnation on
// subsequent readiness samples — that is what lets the sticky oracle bless a
// post-restart reset.
func TestRecorderIncarnation(t *testing.T) {
	rec := NewRecorder("t", 0)
	rec.Ready(false, []string{"numeric fail-safe: job a: nan"})
	rec.Proc(ProcEvent{Target: TargetDaemon, Action: ActRestart, InFlight: 1})
	rec.Ready(true, nil)
	h := rec.History()
	if h.Ready[0].Incarnation != 0 || h.Ready[1].Incarnation != 1 {
		t.Fatalf("incarnations = %d, %d; want 0, 1", h.Ready[0].Incarnation, h.Ready[1].Incarnation)
	}
	if vs := Evaluate(h, nil); len(vs) != 0 {
		t.Fatalf("reset across recorded restart must pass, got %v", vs)
	}
	if h.Procs[0].Seq >= h.Ready[1].Seq || h.Ready[0].Seq >= h.Procs[0].Seq {
		t.Fatal("Seq must totally order records across kinds")
	}
}

// greenLedger is a safety-clean shard lifecycle: grant, expiry fencing the
// holder, a re-grant under a bumped token, and one completion.
func greenLedger() []pool.LeaseEvent {
	return []pool.LeaseEvent{
		{Seq: 0, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
		{Seq: 1, Event: pool.EventExpire, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
		{Seq: 2, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w2", Token: 2},
		{Seq: 3, Event: pool.EventComplete, JobID: "a", ShardID: "s0", Worker: "w2", Token: 2},
	}
}

func TestLeaseSafety(t *testing.T) {
	h, ref := greenHistory()
	h.Leases = greenLedger()
	if vs := Evaluate(h, ref); len(vs) != 0 {
		t.Fatalf("clean ledger must be violation-free, got %v", vs)
	}

	// Double grant: a second holder while the first was never fenced.
	h.Leases = []pool.LeaseEvent{
		{Seq: 0, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
		{Seq: 1, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w2", Token: 2},
	}
	wantOracle(t, checkLeaseSafety(h, ref), OracleLeaseSafety, "while w1 still held it")

	// Token regression on re-grant after an expiry.
	h.Leases = []pool.LeaseEvent{
		{Seq: 0, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w1", Token: 2},
		{Seq: 1, Event: pool.EventExpire, JobID: "a", ShardID: "s0", Worker: "w1", Token: 2},
		{Seq: 2, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w2", Token: 2},
	}
	wantOracle(t, checkLeaseSafety(h, ref), OracleLeaseSafety, "did not advance")

	// A fenced completion: complete under a token the current lease outran.
	h.Leases = []pool.LeaseEvent{
		{Seq: 0, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
		{Seq: 1, Event: pool.EventExpire, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
		{Seq: 2, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w2", Token: 2},
		{Seq: 3, Event: pool.EventComplete, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
	}
	wantOracle(t, checkLeaseSafety(h, ref), OracleLeaseSafety, "completed by w1 but w2 held")

	// Double completion.
	h.Leases = append(greenLedger(),
		pool.LeaseEvent{Seq: 4, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w3", Token: 3})
	wantOracle(t, checkLeaseSafety(h, ref), OracleLeaseSafety, "after its completion")

	// Expiry of an unheld lease.
	h.Leases = []pool.LeaseEvent{
		{Seq: 0, Event: pool.EventExpire, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
	}
	wantOracle(t, checkLeaseSafety(h, ref), OracleLeaseSafety, "unheld lease")

	// A failure report ends its holder's lease like an expiry...
	h.Leases = []pool.LeaseEvent{
		{Seq: 0, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
		{Seq: 1, Event: pool.EventFail, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
		{Seq: 2, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w1", Token: 3},
		{Seq: 3, Event: pool.EventComplete, JobID: "a", ShardID: "s0", Worker: "w1", Token: 3},
	}
	if vs := checkLeaseSafety(h, ref); len(vs) != 0 {
		t.Fatalf("failure then regrant must be violation-free, got %v", vs)
	}
	// ...and, like one, must come from the holder.
	h.Leases[1].Worker = "w2"
	wantOracle(t, checkLeaseSafety(h, ref), OracleLeaseSafety, `"fail" fenced w2 but w1 held`)

	// Broken total order.
	h.Leases = []pool.LeaseEvent{
		{Seq: 0, Event: pool.EventGrant, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
		{Seq: 0, Event: pool.EventComplete, JobID: "a", ShardID: "s0", Worker: "w1", Token: 1},
	}
	wantOracle(t, checkLeaseSafety(h, ref), OracleLeaseSafety, "total order is broken")

	// A truncated ledger is reported, not judged in part: without its first
	// grant, the completion below would read as a completion of no lease.
	h.Leases = greenLedger()[3:]
	vs := checkLeaseSafety(h, ref)
	wantOracle(t, vs, OracleLeaseSafety, "starts at seq 3")
	if len(vs) != 1 {
		t.Fatalf("a truncated ledger must be one violation, not a partial replay: %v", vs)
	}
}

func TestBoundedLiveness(t *testing.T) {
	h, ref := greenHistory()
	if vs := checkBoundedLiveness(h, ref); len(vs) != 0 {
		t.Fatalf("green history must be live, got %v", vs)
	}

	// A job stranded mid-run in the final table.
	h.Jobs = []daemon.JobView{{ID: "a", State: daemon.StateRunning}}
	wantOracle(t, checkBoundedLiveness(h, ref), OracleBoundedLiveness, "still \"running\"")

	// An accepted submission that never reached a terminal observation.
	h, ref = greenHistory()
	h.Results = nil
	wantOracle(t, checkBoundedLiveness(h, ref), OracleBoundedLiveness, "never reached a terminal")

	// Failed submissions are the exactly-once oracle's business, not a
	// liveness hole: nothing was accepted, so nothing is owed a terminal.
	h, ref = greenHistory()
	h.Submissions = []Submission{{Seq: 1, JobID: "b", Key: "k", Err: "refused"}}
	h.Results, h.Jobs = nil, nil
	if vs := checkBoundedLiveness(h, ref); len(vs) != 0 {
		t.Fatalf("rejected submissions owe no liveness, got %v", vs)
	}
}
