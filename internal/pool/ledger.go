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

// LeaseEvent is one entry in the coordinator's lease ledger: an append-only
// record of every grant, expiry, re-adoption, failure and completion, in the
// total order the coordinator decided them (Seq). The crucible's lease-safety
// oracle replays this ledger to prove fencing-token monotonicity and
// exactly-once completion under clock chaos; /pool/leases serves it.
type LeaseEvent struct {
	Seq     int64  `json:"seq"`
	Event   string `json:"event"`
	JobID   string `json:"job_id"`
	ShardID string `json:"shard_id"`
	Worker  string `json:"worker,omitempty"`
	Token   uint64 `json:"token"`
}

// recordLocked appends one ledger entry. Called with c.mu held, so Seq is a
// true total order over lease decisions.
func (c *Coordinator) recordLocked(event, jobID, shardID, worker string, token uint64) {
	c.ledger = append(c.ledger, LeaseEvent{
		Seq: int64(len(c.ledger)), Event: event,
		JobID: jobID, ShardID: shardID, Worker: worker, Token: token,
	})
}

// Leases snapshots the lease ledger.
func (c *Coordinator) Leases() []LeaseEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LeaseEvent, len(c.ledger))
	copy(out, c.ledger)
	return out
}
