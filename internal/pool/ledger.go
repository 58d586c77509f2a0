package pool

// Lease lifecycle event names, as recorded in the ledger and asserted by the
// crucible's lease-safety oracle.
const (
	// EventGrant is a fresh lease grant under a newly bumped token.
	EventGrant = "grant"
	// EventExpire is a lease fenced for missing its renewal deadline.
	EventExpire = "expire"
	// EventReAdopt is a live holder re-establishing its lease after a
	// coordinator restart (pending shard + current token).
	EventReAdopt = "re-adopt"
	// EventComplete is a shard's single effective completion.
	EventComplete = "complete"
	// EventFail is a holder's report of a failed attempt: the shard returns
	// to pending under a bumped token.
	EventFail = "fail"
)

// LeaseEvent is one entry in the coordinator's lease ledger: a record of
// every grant, expiry, re-adoption, failure and completion, in the total
// order the coordinator decided them (Seq, from 0). The crucible's
// lease-safety oracle replays this ledger to prove fencing-token
// monotonicity and exactly-once completion under clock chaos; /pool/leases
// serves it.
type LeaseEvent struct {
	Seq     int64  `json:"seq"`
	Event   string `json:"event"`
	JobID   string `json:"job_id"`
	ShardID string `json:"shard_id"`
	Worker  string `json:"worker,omitempty"`
	Token   uint64 `json:"token"`
}

// ledgerCap bounds the ledger a long-running coordinator keeps: the newest
// ledgerCap events. Every job adds at least two, so an unbounded ledger
// grows with each job served; older events are dropped and counted
// (Stats.LedgerDropped), and a served ledger whose first Seq is not 0 is
// known to be partial.
const ledgerCap = 1 << 14

// recordLocked appends one ledger entry. Called with c.mu held, so Seq is a
// true total order over lease decisions. The backing slice holds up to
// 2·ledgerCap events and is cut back to the newest ledgerCap when full, so
// dropping stays amortized O(1) per event.
func (c *Coordinator) recordLocked(event, jobID, shardID, worker string, token uint64) {
	if len(c.ledger) == 2*ledgerCap {
		c.ledger = c.ledger[:copy(c.ledger, c.ledger[ledgerCap:])]
	}
	c.ledger = append(c.ledger, LeaseEvent{
		Seq: c.ledgerSeq, Event: event,
		JobID: jobID, ShardID: shardID, Worker: worker, Token: token,
	})
	c.ledgerSeq++
}

// keptLocked is the retained ledger: its newest ledgerCap events.
func (c *Coordinator) keptLocked() []LeaseEvent {
	return c.ledger[max(0, len(c.ledger)-ledgerCap):]
}

// Leases snapshots the lease ledger: its newest events, at most ledgerCap.
func (c *Coordinator) Leases() []LeaseEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]LeaseEvent(nil), c.keptLocked()...)
}
