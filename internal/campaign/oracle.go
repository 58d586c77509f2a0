package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"

	"tecfan/internal/daemon"
	"tecfan/internal/pool"
)

// Violation is one oracle failure: which invariant broke, on which job (when
// attributable), and the evidence.
type Violation struct {
	Oracle string `json:"oracle"`
	JobID  string `json:"job_id,omitempty"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	if v.JobID != "" {
		return fmt.Sprintf("%s: job %s: %s", v.Oracle, v.JobID, v.Detail)
	}
	return v.Oracle + ": " + v.Detail
}

// Oracle is one end-to-end invariant over a client-observed history. ref maps
// job ID to the fault-free reference result bytes (from Reference).
type Oracle struct {
	Name  string
	Check func(h *History, ref map[string][]byte) []Violation
}

// Oracle names, stable identifiers for corpus entries and CI logs.
const (
	OracleExactlyOnce      = "exactly-once"
	OracleResultIntegrity  = "result-integrity"
	OracleStickyFailSafe   = "sticky-fail-safe"
	OracleNoNonFinite      = "no-non-finite"
	OracleReadyConsistency = "ready-consistency"
	OracleLeaseSafety      = "lease-safety"
	OracleBoundedLiveness  = "bounded-liveness"
)

// Catalog is the full oracle set, in evaluation order.
func Catalog() []Oracle {
	return []Oracle{
		{OracleExactlyOnce, checkExactlyOnce},
		{OracleResultIntegrity, checkResultIntegrity},
		{OracleStickyFailSafe, checkStickyFailSafe},
		{OracleNoNonFinite, checkNoNonFinite},
		{OracleReadyConsistency, checkReadyConsistency},
		{OracleLeaseSafety, checkLeaseSafety},
		{OracleBoundedLiveness, checkBoundedLiveness},
	}
}

// Evaluate runs the whole catalog and returns every violation.
func Evaluate(h *History, ref map[string][]byte) []Violation {
	var out []Violation
	for _, o := range Catalog() {
		out = append(out, o.Check(h, ref)...)
	}
	return out
}

// checkExactlyOnce: every submission eventually lands, replays of one
// idempotency key always resolve to the same job, and the daemon's final job
// table holds exactly the submitted set — no lost job, no duplicate, no
// stranger.
func checkExactlyOnce(h *History, _ map[string][]byte) []Violation {
	var out []Violation
	byKey := map[string]string{}
	submitted := map[string]bool{}
	for _, s := range h.Submissions {
		if s.Err != "" {
			out = append(out, Violation{OracleExactlyOnce, s.JobID,
				"submission ultimately failed despite retries: " + s.Err})
			continue
		}
		submitted[s.JobID] = true
		if s.ReturnedID != s.JobID {
			out = append(out, Violation{OracleExactlyOnce, s.JobID,
				fmt.Sprintf("submission answered id %q, want the spec id", s.ReturnedID)})
		}
		if prev, ok := byKey[s.Key]; ok && prev != s.ReturnedID {
			out = append(out, Violation{OracleExactlyOnce, s.JobID,
				fmt.Sprintf("idempotency key %q resolved to two jobs: %q then %q", s.Key, prev, s.ReturnedID)})
		}
		byKey[s.Key] = s.ReturnedID
	}
	final := map[string]int{}
	for _, v := range h.Jobs {
		final[v.ID]++
	}
	for _, s := range h.Submissions {
		if s.Err != "" {
			continue
		}
		switch n := final[s.JobID]; {
		case n == 0:
			out = append(out, Violation{OracleExactlyOnce, s.JobID,
				"accepted submission missing from the final job table"})
		case n > 1:
			out = append(out, Violation{OracleExactlyOnce, s.JobID,
				fmt.Sprintf("job appears %d times in the final job table", n)})
		}
		final[s.JobID] = 1 // report once per job, not per replay
	}
	for _, v := range h.Jobs {
		if !submitted[v.ID] {
			out = append(out, Violation{OracleExactlyOnce, v.ID,
				"job table holds a job this episode never submitted"})
		}
	}
	return out
}

// failSafeDeclared reports whether result bytes carry a numeric_health block
// with fail_safe set — the one sanctioned way a completed result's *payload*
// (metrics, trace) may differ from the fault-free reference.
func failSafeDeclared(result []byte) bool {
	var doc struct {
		Numeric *struct {
			FailSafe bool `json:"fail_safe"`
		} `json:"numeric_health"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		return false
	}
	return doc.Numeric != nil && doc.Numeric.FailSafe
}

// journalDeclaresActivity reports whether the result's numeric_health journal
// accounts for at least one absorbed event (a recovered or held step, a
// refinement, a violation, or fail-safe). A journal-only divergence from the
// reference is sanctioned exactly when the journal owns up to the absorbed
// faults; a differing journal that claims nothing happened is a lie.
func journalDeclaresActivity(result []byte) bool {
	var doc struct {
		Numeric *struct {
			Refinements    int  `json:"refinements"`
			RecoveredSteps int  `json:"recovered_steps"`
			HeldSteps      int  `json:"held_steps"`
			Violations     int  `json:"violations"`
			FailSafe       bool `json:"fail_safe"`
		} `json:"numeric_health"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		return false
	}
	n := doc.Numeric
	if n == nil {
		return false
	}
	return n.Refinements+n.RecoveredSteps+n.HeldSteps+n.Violations > 0 || n.FailSafe
}

// stripJournal removes the top-level numeric_health block from a result
// document and re-marshals the rest canonically (sorted keys, raw value bytes
// preserved), so two results can be compared payload-to-payload. Documents
// that don't parse are returned unchanged — the comparison then falls back to
// whole-byte equality.
func stripJournal(result []byte) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(result, &m); err != nil {
		return result
	}
	delete(m, "numeric_health")
	out, err := json.Marshal(m)
	if err != nil {
		return result
	}
	return out
}

// payloadIdentical reports whether two result documents are byte-identical
// outside the numeric_health journal.
func payloadIdentical(a, b []byte) bool {
	return bytes.Equal(stripJournal(a), stripJournal(b))
}

// refusalRe matches the typed failure modes a job may legitimately end in:
// a confirmed numerical divergence (plain controllers refuse rather than
// emit garbage) or an explicit cancellation.
var refusalRe = regexp.MustCompile(`confirmed numeric divergence|context canceled|canceled`)

// checkResultIntegrity: a done job's durable result must be byte-identical
// to the fault-free reference, with two sanctioned exceptions: a payload
// divergence declared by the controller's fail-safe, or a journal-only
// divergence (payload byte-identical, numeric_health differs) whose journal
// accounts for the absorbed faults — e.g. recovered_steps counting transient
// upsets the FT policy rode through. A failed job must carry a clean typed
// refusal, not an arbitrary error.
func checkResultIntegrity(h *History, ref map[string][]byte) []Violation {
	var out []Violation
	for _, r := range h.Results {
		switch r.State {
		case "done":
			want, ok := ref[r.JobID]
			if !ok {
				out = append(out, Violation{OracleResultIntegrity, r.JobID,
					"no reference result to compare against"})
				continue
			}
			if len(r.Result) == 0 {
				out = append(out, Violation{OracleResultIntegrity, r.JobID,
					"done job served no result bytes"})
				continue
			}
			if bytes.Equal(r.Result, want) {
				continue
			}
			if failSafeDeclared(r.Result) {
				continue // a declared degraded result, by §15's contract
			}
			if payloadIdentical(r.Result, want) {
				if journalDeclaresActivity(r.Result) {
					continue // journal-only divergence, honestly accounted for
				}
				out = append(out, Violation{OracleResultIntegrity, r.JobID,
					"numeric_health journal differs from the reference yet declares no activity"})
				continue
			}
			out = append(out, Violation{OracleResultIntegrity, r.JobID, fmt.Sprintf(
				"result payload differs from the fault-free reference (%d vs %d bytes) without declaring fail-safe",
				len(r.Result), len(want))})
		case "failed":
			if !refusalRe.MatchString(r.Error) {
				out = append(out, Violation{OracleResultIntegrity, r.JobID,
					"failed without a clean typed refusal: " + r.Error})
			}
		default:
			out = append(out, Violation{OracleResultIntegrity, r.JobID,
				"ended in unexpected state " + r.State})
		}
	}
	return out
}

// failSafeReason marks the sticky /readyz reason runTrace latches.
const failSafeReason = "numeric fail-safe"

// checkStickyFailSafe: within one daemon incarnation, once /readyz reports a
// numeric fail-safe it must keep reporting it — the whole point of the sticky
// latch is that an operator polling later still sees the divergence. A
// restart (new incarnation) legitimately clears it.
func checkStickyFailSafe(h *History, _ map[string][]byte) []Violation {
	var out []Violation
	latched := map[int]int{} // incarnation -> seq of first fail-safe sample
	for _, s := range h.Ready {
		has := false
		for _, reason := range s.Reasons {
			if strings.Contains(reason, failSafeReason) {
				has = true
				break
			}
		}
		if has {
			if _, ok := latched[s.Incarnation]; !ok {
				latched[s.Incarnation] = s.Seq
			}
			continue
		}
		if first, ok := latched[s.Incarnation]; ok {
			out = append(out, Violation{OracleStickyFailSafe, "", fmt.Sprintf(
				"readiness sample %d dropped the fail-safe reason latched at sample %d (incarnation %d)",
				s.Seq, first, s.Incarnation)})
		}
	}
	return out
}

// nonFiniteRe matches a bare NaN/Inf token in plain text (job errors,
// readiness reasons). Diagnoses deliberately spell values out as
// "not-a-number"/"overflow" (numguard), so any match is a leak.
var nonFiniteRe = regexp.MustCompile(`\bNaN\b|[+-]?\bInf\b`)

// nonFiniteValueRe matches a non-finite token in JSON *value* position —
// after a colon, comma, or opening bracket. Valid JSON cannot carry an
// unquoted NaN (encoding/json refuses it), so a value-position hit means a
// hand-rolled formatter leaked one. Tokens inside quoted strings are prose
// (a chaos scenario's Desc says "sensors read NaN" by design) and are fine.
var nonFiniteValueRe = regexp.MustCompile(`[:,\[]\s*(?:NaN|[+-]?Inf)\b`)

// checkNoNonFinite: no result document, job error, or readiness reason may
// carry a non-finite float token.
func checkNoNonFinite(h *History, _ map[string][]byte) []Violation {
	var out []Violation
	for _, r := range h.Results {
		if loc := nonFiniteValueRe.Find(r.Result); loc != nil {
			out = append(out, Violation{OracleNoNonFinite, r.JobID,
				fmt.Sprintf("result carries a non-finite token %q", loc)})
		}
		if nonFiniteRe.MatchString(r.Error) {
			out = append(out, Violation{OracleNoNonFinite, r.JobID,
				"job error carries a non-finite token: " + r.Error})
		}
	}
	for _, v := range h.Jobs {
		if nonFiniteRe.MatchString(v.Error) {
			out = append(out, Violation{OracleNoNonFinite, v.ID,
				"job-table error carries a non-finite token: " + v.Error})
		}
	}
	for _, s := range h.Ready {
		for _, reason := range s.Reasons {
			if nonFiniteRe.MatchString(reason) {
				out = append(out, Violation{OracleNoNonFinite, "",
					"readiness reason carries a non-finite token: " + reason})
			}
		}
	}
	return out
}

// checkReadyConsistency: no submission may be accepted (2xx) on a response
// the daemon itself stamped draining or storage-degraded — both refusals are
// decided atomically inside submit, so an acceptance riding such a response
// means the gate and the admission disagreed.
func checkReadyConsistency(h *History, _ map[string][]byte) []Violation {
	var out []Violation
	for _, c := range h.Calls {
		if c.Method != http.MethodPost || !strings.HasPrefix(c.Path, "/jobs") {
			continue
		}
		if c.Status != http.StatusOK && c.Status != http.StatusAccepted {
			continue
		}
		if strings.Contains(c.ReadyState, "draining") ||
			strings.Contains(c.ReadyState, "storage degraded") {
			out = append(out, Violation{OracleReadyConsistency, "", fmt.Sprintf(
				"call %d: submission accepted (%d) on a response stamped %q",
				c.Seq, c.Status, c.ReadyState)})
		}
	}
	return out
}

// checkLeaseSafety replays the coordinator's lease ledger shard by shard and
// proves the fencing discipline held no matter what the clocks did: tokens
// never move backwards and each grant strictly bumps; a shard never carries
// two holders at once (a grant or re-adoption only lands on an unheld shard);
// an expiry, a failure report or a completion names the actual holder under
// the holder's own token; and a shard completes at most once, with nothing
// after. A skewed or stepped clock may expire leases early or late — that
// costs reassignment
// work, never safety — so any violation here means wall time leaked into the
// lease arithmetic. A ledger that does not start at seq 0 lost its oldest
// events to the coordinator's cap, and a partial ledger proves nothing: it
// is itself the violation.
func checkLeaseSafety(h *History, _ map[string][]byte) []Violation {
	if len(h.Leases) > 0 && h.Leases[0].Seq != 0 {
		return []Violation{{OracleLeaseSafety, "", fmt.Sprintf(
			"ledger starts at seq %d: its older events were dropped, so fencing cannot be judged", h.Leases[0].Seq)}}
	}
	var out []Violation
	type shardState struct {
		holder    string
		token     uint64 // highest token observed
		completed bool
	}
	shards := map[string]*shardState{}
	lastSeq := int64(-1)
	for _, e := range h.Leases {
		if e.Seq <= lastSeq {
			out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
				"ledger seq went %d -> %d; the coordinator's total order is broken", lastSeq, e.Seq)})
		}
		lastSeq = e.Seq
		key := e.JobID + "/" + e.ShardID
		st := shards[key]
		if st == nil {
			st = &shardState{}
			shards[key] = st
		}
		if st.completed {
			out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
				"shard %s saw %q (seq %d) after its completion", e.ShardID, e.Event, e.Seq)})
		}
		switch e.Event {
		case pool.EventGrant:
			if st.holder != "" {
				out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
					"shard %s granted to %s while %s still held it (seq %d)",
					e.ShardID, e.Worker, st.holder, e.Seq)})
			}
			if e.Token <= st.token {
				out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
					"shard %s grant token %d did not advance past %d (seq %d): a fenced holder's writes could land",
					e.ShardID, e.Token, st.token, e.Seq)})
			}
			st.holder, st.token = e.Worker, e.Token
		case pool.EventReAdopt:
			if st.holder != "" {
				out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
					"shard %s re-adopted by %s while %s still held it (seq %d)",
					e.ShardID, e.Worker, st.holder, e.Seq)})
			}
			if e.Token < st.token {
				out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
					"shard %s re-adoption token %d below observed %d (seq %d)",
					e.ShardID, e.Token, st.token, e.Seq)})
			}
			st.holder, st.token = e.Worker, e.Token
		case pool.EventExpire, pool.EventFail:
			// A lapsed lease and a reported failure both end the holder's
			// lease under its own token.
			if st.holder == "" {
				out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
					"shard %s saw %q on an unheld lease (seq %d)", e.ShardID, e.Event, e.Seq)})
			} else if e.Worker != st.holder {
				out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
					"shard %s %q fenced %s but %s held the lease (seq %d)",
					e.ShardID, e.Event, e.Worker, st.holder, e.Seq)})
			}
			if e.Token != st.token {
				out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
					"shard %s %q carried token %d, holder held %d (seq %d)",
					e.ShardID, e.Event, e.Token, st.token, e.Seq)})
			}
			st.holder = ""
		case pool.EventComplete:
			if st.holder == "" {
				out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
					"shard %s completed with no lease held (seq %d)", e.ShardID, e.Seq)})
			} else if e.Worker != st.holder {
				out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
					"shard %s completed by %s but %s held the lease (seq %d)",
					e.ShardID, e.Worker, st.holder, e.Seq)})
			}
			if e.Token != st.token {
				out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
					"shard %s completion carried token %d, lease held %d (seq %d): a fenced completion landed",
					e.ShardID, e.Token, st.token, e.Seq)})
			}
			st.holder = ""
			st.completed = true
		default:
			out = append(out, Violation{OracleLeaseSafety, e.JobID, fmt.Sprintf(
				"ledger carries unknown event %q (seq %d)", e.Event, e.Seq)})
		}
	}
	return out
}

// checkBoundedLiveness: chaos may slow the system down but must never strand
// it — every accepted submission reaches a terminal observation, and the
// final job table holds nothing still queued or running after the episode's
// drain. The clock layer is the classic way to break this: a backoff
// stretched by a forward step, or a lease whose expiry a frozen clock never
// reaches, parks a job forever while every component believes it is waiting
// correctly.
func checkBoundedLiveness(h *History, _ map[string][]byte) []Violation {
	var out []Violation
	observed := map[string]bool{}
	for _, r := range h.Results {
		if terminal(daemon.JobState(r.State)) {
			observed[r.JobID] = true
		}
	}
	reported := map[string]bool{}
	for _, s := range h.Submissions {
		if s.Err != "" || reported[s.JobID] {
			continue
		}
		reported[s.JobID] = true
		if !observed[s.JobID] {
			out = append(out, Violation{OracleBoundedLiveness, s.JobID,
				"accepted submission never reached a terminal result observation"})
		}
	}
	for _, v := range h.Jobs {
		if !terminal(v.State) {
			out = append(out, Violation{OracleBoundedLiveness, v.ID, fmt.Sprintf(
				"job still %q in the final job table after the episode drained", v.State)})
		}
	}
	return out
}

// terminal reports whether a job state is final.
func terminal(st daemon.JobState) bool {
	switch st {
	case daemon.StateDone, daemon.StateFailed, daemon.StateCanceled:
		return true
	}
	return false
}
