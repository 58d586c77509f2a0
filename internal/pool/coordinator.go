package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tecfan/internal/clockfault"
)

// Sentinel errors surfaced to the HTTP layer (and through it to workers).
var (
	// ErrFenced rejects a write carrying a stale fencing token: the sender
	// lost its lease (death, stall, partition) and the shard moved on. The
	// only correct worker response is to abandon the shard.
	ErrFenced = errors.New("pool: fenced: stale lease token")
	// ErrShardGone rejects a write for a shard or job the coordinator no
	// longer tracks — the job was canceled or dropped.
	ErrShardGone = errors.New("pool: shard gone")
)

// DefaultLeaseTTL is the lease duration when Config.LeaseTTL is zero.
const DefaultLeaseTTL = 10 * time.Second

// Config parameterizes a Coordinator.
type Config struct {
	// LeaseTTL is how long a granted lease lives without renewal.
	LeaseTTL time.Duration
	// Logf receives coordinator events; nil discards them.
	Logf func(format string, args ...any)
	// Clock is the time seam; nil means clockfault.OS. Lease expiry and
	// worker liveness are judged exclusively by this clock's monotonic
	// arithmetic, so a wall-clock step (NTP, operator, fault injection) can
	// neither mass-expire live leases nor immortalize dead ones.
	Clock clockfault.Clock
}

// JobOptions are what the job owner (the daemon) sets per job.
type JobOptions struct {
	// Persist durably stores the job's pool state. It is called with the
	// coordinator lock held, BEFORE any grant or completion is acknowledged:
	// a token a worker has seen is always a token that survives coordinator
	// restart, which is what makes regranting a live token impossible. A
	// job whose holders live in the coordinator's own process needs no
	// such record and leaves it nil.
	Persist func(*PersistedState) error
	// MaxAttempts fails the job once one shard has reported this many failed
	// attempts (0 = never). A lease that expires is not a failed attempt:
	// its holder died or stalled, and the shard's work did not fail.
	MaxAttempts int
}

// PersistedState is the durable pool state of one job, embedded by the
// daemon into the job's checkpoint envelope.
type PersistedState struct {
	Shards []PersistedShard
}

// PersistedShard is one shard's durable state. Lease holder and expiry are
// deliberately absent: leases are volatile, and after a coordinator restart
// a live holder re-establishes its lease by heartbeating its still-current
// token (re-adoption), while a dead one simply never comes back.
type PersistedShard struct {
	ID         string
	Token      uint64
	Done       bool
	Checkpoint []byte
	Result     []byte
}

// Stats is the coordinator's observable state, served at /pool/stats.
type Stats struct {
	WorkersLive   int   `json:"workers_live"`
	Jobs          int   `json:"jobs"`
	ShardsTotal   int   `json:"shards_total"`
	ShardsDone    int   `json:"shards_done"`
	Grants        int64 `json:"grants"`
	Completes     int64 `json:"completes"`
	FencedRejects int64 `json:"fenced_rejects"`
	ExpiredLeases int64 `json:"expired_leases"`
	// LedgerDropped counts the oldest lease events dropped to keep the
	// ledger at its cap.
	LedgerDropped int64 `json:"ledger_dropped"`
}

type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

type shard struct {
	spec       ShardSpec
	token      uint64
	state      shardState
	holder     string
	expiry     clockfault.Mono
	failures   int // failed attempts reported, in this incarnation
	checkpoint []byte
	result     []byte
}

type poolJob struct {
	id     string
	shards []*shard // plan order == merge order
	opts   JobOptions
	err    error // set when a shard ran out of attempts
}

func (j *poolJob) allDone() bool {
	for _, sh := range j.shards {
		if sh.state != shardDone {
			return false
		}
	}
	return true
}

func (j *poolJob) persisted() *PersistedState {
	st := &PersistedState{Shards: make([]PersistedShard, len(j.shards))}
	for i, sh := range j.shards {
		st.Shards[i] = PersistedShard{
			ID: sh.spec.ID, Token: sh.token, Done: sh.state == shardDone,
			Checkpoint: sh.checkpoint, Result: sh.result,
		}
	}
	return st
}

// Coordinator owns the lease table: it shards nothing and executes nothing,
// it only decides who may work on what, under which fencing token, and for
// how long. All methods are safe for concurrent use.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*poolJob
	jobOrder []string
	lastSeen map[string]clockfault.Mono
	ledger   []LeaseEvent
	// ledgerSeq is the next event's Seq: the count of events ever recorded.
	ledgerSeq int64
	// wake is closed, and replaced, whenever a shard may have become
	// claimable; Await sleeps on it.
	wake chan struct{}

	grants, completes, fenced, expired int64
}

// New creates a Coordinator.
func New(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.Clock = clockfault.Or(cfg.Clock)
	return &Coordinator{
		cfg:      cfg,
		jobs:     map[string]*poolJob{},
		lastSeen: map[string]clockfault.Mono{},
		wake:     make(chan struct{}),
	}
}

// signalLocked wakes every Await. Called with c.mu held.
func (c *Coordinator) signalLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// AddJob registers a job's shards for distribution. restore, when non-nil,
// reapplies a previously persisted state (matched by shard ID): done shards
// stay done, tokens resume from their high-water mark, and checkpoints are
// handed to the next claimant. Collect reports when the job has ended.
func (c *Coordinator) AddJob(id string, shards []ShardSpec, restore *PersistedState, opts JobOptions) error {
	if len(shards) == 0 {
		return fmt.Errorf("pool: job %s: empty shard plan", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.jobs[id]; ok {
		return fmt.Errorf("pool: job %s already registered", id)
	}
	j := &poolJob{id: id, opts: opts}
	prev := map[string]PersistedShard{}
	if restore != nil {
		for _, ps := range restore.Shards {
			prev[ps.ID] = ps
		}
	}
	for _, spec := range shards {
		sh := &shard{spec: spec}
		if ps, ok := prev[spec.ID]; ok {
			sh.token = ps.Token
			sh.checkpoint = ps.Checkpoint
			if ps.Done {
				sh.state = shardDone
				sh.result = ps.Result
			}
		}
		j.shards = append(j.shards, sh)
	}
	c.jobs[id] = j
	c.jobOrder = append(c.jobOrder, id)
	c.signalLocked()
	return nil
}

// DropJob forgets a job. In-flight workers learn on their next call, which
// answers ErrShardGone, and abandon the shard.
func (c *Coordinator) DropJob(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(id)
}

func (c *Coordinator) dropLocked(id string) {
	delete(c.jobs, id)
	for i, jid := range c.jobOrder {
		if jid == id {
			c.jobOrder = append(c.jobOrder[:i], c.jobOrder[i+1:]...)
			break
		}
	}
}

// Collect hands over an ended job, exactly once: its shard result payloads
// in plan order when every shard is done, or the error that failed it. The
// job is forgotten with it, so a concurrent caller gets ErrShardGone. A job
// still running returns nil, nil and stays.
func (c *Coordinator) Collect(id string) (payloads [][]byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, found := c.jobs[id]
	if !found {
		return nil, fmt.Errorf("%w: job %s", ErrShardGone, id)
	}
	if j.err == nil && !j.allDone() {
		return nil, nil
	}
	c.dropLocked(id)
	if j.err != nil {
		return nil, j.err
	}
	out := make([][]byte, len(j.shards))
	for i, sh := range j.shards {
		out[i] = sh.result
	}
	return out, nil
}

// expireLocked fences every lease past its expiry: the shard returns to
// pending under a bumped token, so any still-running holder's subsequent
// writes are rejected. Called with c.mu held, lazily from worker-driven
// entry points — worker polling is the pool's clock, no background sweeper.
func (c *Coordinator) expireLocked(now clockfault.Mono) {
	for _, id := range c.jobOrder {
		for _, sh := range c.jobs[id].shards {
			if sh.state == shardLeased && now.After(sh.expiry) {
				c.expireShardLocked(id, sh)
			}
		}
	}
}

// expireShardLocked fences one overdue lease. Called with c.mu held.
func (c *Coordinator) expireShardLocked(jobID string, sh *shard) {
	c.cfg.Logf("pool: lease expired: job %s shard %s holder %s token %d",
		jobID, sh.spec.ID, sh.holder, sh.token)
	c.recordLocked(EventExpire, jobID, sh.spec.ID, sh.holder, sh.token)
	c.releaseLocked(sh)
	c.expired++
}

// releaseLocked returns a leased shard to pending under a bumped token,
// fencing its last holder, and wakes Await. Called with c.mu held.
func (c *Coordinator) releaseLocked(sh *shard) {
	sh.state = shardPending
	sh.holder = ""
	sh.token++
	c.signalLocked()
}

// Claim grants the first pending shard in plan order to worker, bumping and
// durably persisting its fencing token before the grant is returned. A nil
// response with nil error means no work is available.
func (c *Coordinator) Claim(worker string) (*ClaimResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.claimLocked(worker)
}

// Await is Claim for a holder in the coordinator's own process: it blocks
// until worker is granted a shard or ctx ends. It sleeps on the signal
// raised whenever a shard may have become claimable, not on a poll timer,
// and claims again at least once per lease TTL, since a lease lapses lazily
// and only a claim or a write frees it.
func (c *Coordinator) Await(ctx context.Context, worker string) (*ClaimResponse, error) {
	for ctx.Err() == nil {
		c.mu.Lock()
		grant, err := c.claimLocked(worker)
		wake := c.wake
		c.mu.Unlock()
		if grant != nil || err != nil {
			return grant, err
		}
		t := c.cfg.Clock.NewTimer(c.cfg.LeaseTTL)
		select {
		case <-wake:
		case <-t.C():
		case <-ctx.Done():
		}
		t.Stop()
	}
	return nil, ctx.Err()
}

func (c *Coordinator) claimLocked(worker string) (*ClaimResponse, error) {
	now := c.cfg.Clock.Mono()
	c.lastSeen[worker] = now
	c.expireLocked(now)
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j.err != nil {
			continue
		}
		for _, sh := range j.shards {
			if sh.state != shardPending {
				continue
			}
			sh.token++
			sh.state = shardLeased
			sh.holder = worker
			sh.expiry = now.Add(c.cfg.LeaseTTL)
			if j.opts.Persist != nil {
				if err := j.opts.Persist(j.persisted()); err != nil {
					// The grant must not be visible without a durable token:
					// revert the lease (the bumped in-memory token was never
					// observed, so monotonicity is intact) and refuse.
					sh.state = shardPending
					sh.holder = ""
					return nil, fmt.Errorf("pool: persisting grant of %s/%s: %w", id, sh.spec.ID, err)
				}
			}
			c.grants++
			c.cfg.Logf("pool: granted job %s shard %s to %s token %d", id, sh.spec.ID, worker, sh.token)
			c.recordLocked(EventGrant, id, sh.spec.ID, worker, sh.token)
			return &ClaimResponse{
				JobID: id, Shard: sh.spec, Token: sh.token,
				LeaseMS:    c.cfg.LeaseTTL.Milliseconds(),
				Checkpoint: sh.checkpoint,
				Attempt:    sh.failures + 1,
			}, nil
		}
	}
	return nil, nil
}

// lookupLocked resolves a write's shard and applies the fencing rules shared
// by heartbeat, checkpoint upload, and completion.
func (c *Coordinator) lookupLocked(kind, workerName, jobID, shardID string, token uint64) (*poolJob, *shard, error) {
	j, ok := c.jobs[jobID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: job %s", ErrShardGone, jobID)
	}
	for _, sh := range j.shards {
		if sh.spec.ID != shardID {
			continue
		}
		if token != sh.token {
			c.fenced++
			c.cfg.Logf("pool: fenced %s from %s: job %s shard %s token %d (current %d)",
				kind, workerName, jobID, shardID, token, sh.token)
			return nil, nil, fmt.Errorf("%w: %s token %d superseded by %d", ErrFenced, shardID, token, sh.token)
		}
		return j, sh, nil
	}
	return nil, nil, fmt.Errorf("%w: job %s shard %s", ErrShardGone, jobID, shardID)
}

// heldLocked fences a write whose sender no longer holds a live lease on sh:
// the shard is not leased to it, or the lease ran out (and is expired on
// the spot, even before reassignment, so its holder learns at once).
func (c *Coordinator) heldLocked(kind, worker, jobID string, sh *shard, now clockfault.Mono) error {
	reason := "not leased to " + worker
	switch {
	case sh.state != shardLeased || sh.holder != worker:
	case now.After(sh.expiry):
		c.expireShardLocked(jobID, sh)
		reason = "lease expired"
	default:
		return nil
	}
	c.fenced++
	c.cfg.Logf("pool: fenced %s from %s: job %s shard %s %s", kind, worker, jobID, sh.spec.ID, reason)
	return fmt.Errorf("%w: %s %s", ErrFenced, sh.spec.ID, reason)
}

// Heartbeat renews a lease. Three non-error outcomes share a current token:
// a live lease renews; a pending shard with no holder — the signature of a
// coordinator restart with the worker still running — is re-adopted by its
// holder; a done shard answers OK (the completing worker's trailing beat).
func (c *Coordinator) Heartbeat(hb *HeartbeatRequest) (*HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Mono()
	c.lastSeen[hb.Worker] = now
	_, sh, err := c.lookupLocked("heartbeat", hb.Worker, hb.JobID, hb.ShardID, hb.Token)
	if err != nil {
		return nil, err
	}
	resp := &HeartbeatResponse{LeaseMS: c.cfg.LeaseTTL.Milliseconds()}
	switch sh.state {
	case shardDone:
		return resp, nil
	case shardLeased:
		if err := c.heldLocked("heartbeat", hb.Worker, hb.JobID, sh, now); err != nil {
			return nil, err
		}
		sh.expiry = now.Add(c.cfg.LeaseTTL)
		return resp, nil
	default: // pending + current token: re-adoption after coordinator restart
		sh.state = shardLeased
		sh.holder = hb.Worker
		sh.expiry = now.Add(c.cfg.LeaseTTL)
		c.cfg.Logf("pool: re-adopted job %s shard %s holder %s token %d",
			hb.JobID, sh.spec.ID, hb.Worker, sh.token)
		c.recordLocked(EventReAdopt, hb.JobID, sh.spec.ID, hb.Worker, sh.token)
		return resp, nil
	}
}

// UploadCheckpoint stores a shard's progress snapshot and renews the lease.
// The snapshot is persisted so it survives coordinator restart — that is the
// whole point of uploading it — but a persist failure only logs: the
// in-memory copy still serves reassignment, and the next upload retries.
func (c *Coordinator) UploadCheckpoint(up *CheckpointUpload) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Mono()
	c.lastSeen[up.Worker] = now
	j, sh, err := c.lookupLocked("checkpoint upload", up.Worker, up.JobID, up.ShardID, up.Token)
	if err != nil {
		return err
	}
	if err := c.heldLocked("checkpoint upload", up.Worker, up.JobID, sh, now); err != nil {
		return err
	}
	sh.checkpoint = up.Data
	sh.expiry = now.Add(c.cfg.LeaseTTL)
	if j.opts.Persist != nil {
		if err := j.opts.Persist(j.persisted()); err != nil {
			c.cfg.Logf("pool: persisting checkpoint of %s/%s: %v", up.JobID, up.ShardID, err)
		}
	}
	return nil
}

// Complete records a shard's result. The done state and payload are
// persisted BEFORE the ack, so a completion the coordinator acknowledged can
// never un-happen; a retry of an already-done shard under the same token is
// answered OK without re-recording — together, exactly-once.
//
// A request carrying Error reports a failed attempt instead: the shard is
// fenced and regranted from its last checkpoint, or, once it has failed
// MaxAttempts times, the job fails with the cause.
func (c *Coordinator) Complete(cr *CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Mono()
	c.lastSeen[cr.Worker] = now
	j, sh, err := c.lookupLocked("complete", cr.Worker, cr.JobID, cr.ShardID, cr.Token)
	if err != nil {
		return err
	}
	if sh.state == shardDone {
		return nil // idempotent retry of a lost ack
	}
	if err := c.heldLocked("complete", cr.Worker, cr.JobID, sh, now); err != nil {
		return err
	}
	if cr.Error != "" {
		c.failLocked(j, sh, cr)
		return nil
	}
	sh.state = shardDone
	sh.holder = ""
	sh.result = cr.Result
	if j.opts.Persist != nil {
		if err := j.opts.Persist(j.persisted()); err != nil {
			// Not durable means not done: revert so the worker's retry (or a
			// reassignment) completes it again.
			sh.state = shardLeased
			sh.holder = cr.Worker
			sh.result = nil
			return fmt.Errorf("pool: persisting completion of %s/%s: %w", cr.JobID, cr.ShardID, err)
		}
	}
	c.completes++
	c.cfg.Logf("pool: completed job %s shard %s by %s token %d", cr.JobID, sh.spec.ID, cr.Worker, sh.token)
	c.recordLocked(EventComplete, cr.JobID, sh.spec.ID, cr.Worker, sh.token)
	return nil
}

// failLocked records a failed attempt on a shard its reporter holds.
// Called with c.mu held.
func (c *Coordinator) failLocked(j *poolJob, sh *shard, cr *CompleteRequest) {
	sh.failures++
	c.recordLocked(EventFail, j.id, sh.spec.ID, cr.Worker, sh.token)
	c.releaseLocked(sh)
	if max := j.opts.MaxAttempts; max > 0 && sh.failures >= max {
		j.err = fmt.Errorf("attempt %d/%d: %s", sh.failures, max, cr.Error)
		c.cfg.Logf("pool: job %s failed on shard %s: %v", j.id, sh.spec.ID, j.err)
		return
	}
	c.cfg.Logf("pool: job %s shard %s attempt %d by %s failed (%s); regranting from its last checkpoint",
		j.id, sh.spec.ID, sh.failures, cr.Worker, cr.Error)
}

// LiveWorkers counts workers seen within two lease TTLs.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked(c.cfg.Clock.Mono())
}

func (c *Coordinator) liveWorkersLocked(now clockfault.Mono) int {
	n := 0
	for _, seen := range c.lastSeen {
		if now.Sub(seen) <= 2*c.cfg.LeaseTTL {
			n++
		}
	}
	return n
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		WorkersLive:   c.liveWorkersLocked(c.cfg.Clock.Mono()),
		Jobs:          len(c.jobs),
		Grants:        c.grants,
		Completes:     c.completes,
		FencedRejects: c.fenced,
		ExpiredLeases: c.expired,
		LedgerDropped: c.ledgerSeq - int64(len(c.keptLocked())),
	}
	for _, j := range c.jobs {
		st.ShardsTotal += len(j.shards)
		for _, sh := range j.shards {
			if sh.state == shardDone {
				st.ShardsDone++
			}
		}
	}
	return st
}
