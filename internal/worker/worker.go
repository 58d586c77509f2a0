// Package worker is the execution side of the tecfand worker pool: a
// process that claims shard leases from a coordinator, executes them through
// its one pool.Executor — the executor the daemon's in-process path uses
// too, so every shard a worker runs shares one thermal model and one memo
// of derived thresholds — streams progress checkpoints back so its own
// death loses at most one checkpoint interval, and renews its lease on a
// heartbeat loop.
//
// Fencing discipline: every write the worker makes carries the token from
// its grant. When any call answers pool.ErrFenced or pool.ErrShardGone the
// worker abandons the shard immediately — the coordinator has moved it on,
// and anything this worker computes past that point is a zombie's work.
// Checkpoint uploads deliberately run on an independent timeout context
// (not the shard's): a worker resuming from a long stall must still deliver
// its stale-token upload to the coordinator, whose fencing rejection (and
// log line) is the observable proof the zombie was stopped.
package worker

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tecfan/internal/client"
	"tecfan/internal/clockfault"
	"tecfan/internal/numfault"
	"tecfan/internal/pool"
)

// uploadTimeout bounds each checkpoint upload / completion attempt
// independently of the shard context.
const uploadTimeout = 10 * time.Second

// Config tunes a Worker.
type Config struct {
	// Client is the hardened transport to the coordinator. Required.
	Client *client.Client
	// Name identifies this worker in leases and coordinator logs. Required.
	Name string
	// Poll is the idle wait between claim attempts when no work is available
	// (default 500 ms).
	Poll time.Duration
	// OnClaim, when non-nil, observes every grant before execution starts —
	// the breadcrumb seam tecfan-worker uses.
	OnClaim func(grant *pool.ClaimResponse)
	// Clock is the time seam driving the poll wait, heartbeat cadence, and
	// upload deadlines (default clockfault.OS); tecfan-worker wires a
	// FaultClock here under -clockfault-schedule.
	Clock clockfault.Clock
	// NumFaults arms the numerical-chaos injector for every trace shard this
	// worker executes, mirroring the daemon's -numfault-schedule so pooled
	// jobs run under the same fault lattice as in-process ones. Injection is a
	// pure function of (seed, step, rule), so a shard resumed by another
	// worker with the same schedule replays the identical faults.
	NumFaults *numfault.Schedule
	// Logf receives operational log lines (default: silent).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if c.Client == nil {
		return errors.New("worker: Client is required")
	}
	if c.Name == "" {
		return errors.New("worker: Name is required")
	}
	if c.Poll <= 0 {
		c.Poll = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	c.Clock = clockfault.Or(c.Clock)
	return nil
}

// Stats are the worker's monotonic counters, safe to read concurrently.
type Stats struct {
	ShardsDone      int64 `json:"shards_done"`
	ShardsAbandoned int64 `json:"shards_abandoned"`
	ShardErrors     int64 `json:"shard_errors"`
	Checkpoints     int64 `json:"checkpoints_uploaded"`
	FencedWrites    int64 `json:"fenced_writes"`
}

// Worker runs the claim → execute → complete loop against one coordinator.
type Worker struct {
	cfg Config
	// execute runs every shard this worker is granted: Execute of its one
	// executor, or a test's stand-in.
	execute func(ctx context.Context, sh pool.ShardSpec, from *pool.Checkpoint, save func(*pool.Checkpoint) error) (*pool.ShardResult, error)

	done      atomic.Int64
	abandoned atomic.Int64
	errors    atomic.Int64
	ckpts     atomic.Int64
	fenced    atomic.Int64
}

// New validates the config and builds a worker.
func New(cfg Config) (*Worker, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return &Worker{cfg: cfg, execute: pool.NewExecutor(cfg.NumFaults).Execute}, nil
}

// Stats snapshots the counters.
func (w *Worker) Stats() Stats {
	return Stats{
		ShardsDone:      w.done.Load(),
		ShardsAbandoned: w.abandoned.Load(),
		ShardErrors:     w.errors.Load(),
		Checkpoints:     w.ckpts.Load(),
		FencedWrites:    w.fenced.Load(),
	}
}

// Run claims and executes shards until ctx is canceled. Claim failures and
// shard errors are absorbed (logged, counted) — a worker outlives coordinator
// restarts and its own bad shards; only cancellation stops it.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := w.cfg.Client.PoolClaim(ctx, w.cfg.Name)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.cfg.Logf("worker %s: claim: %v", w.cfg.Name, err)
			_ = w.cfg.Clock.Sleep(ctx, w.cfg.Poll)
			continue
		}
		if grant == nil {
			_ = w.cfg.Clock.Sleep(ctx, w.cfg.Poll)
			continue
		}
		w.cfg.Logf("worker %s: claimed %s/%s token %d (checkpoint: %d bytes)",
			w.cfg.Name, grant.JobID, grant.Shard.ID, grant.Token, len(grant.Checkpoint))
		if w.cfg.OnClaim != nil {
			w.cfg.OnClaim(grant)
		}
		w.runShard(ctx, grant)
	}
}

// lease is the worker's handle on one granted shard: identity for every
// write, plus the cancel lever the heartbeat loop pulls when the coordinator
// fences us.
type lease struct {
	w      *Worker
	grant  *pool.ClaimResponse
	cancel context.CancelFunc
}

// runShard executes one granted shard under a heartbeat loop. The shard
// context is canceled the moment a heartbeat learns the lease is gone, which
// the exp sweeps observe at their next row boundary.
func (w *Worker) runShard(ctx context.Context, grant *pool.ClaimResponse) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	l := &lease{w: w, grant: grant, cancel: cancel}

	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		l.heartbeatLoop(sctx)
	}()
	defer func() { cancel(); <-hbDone }()

	result, err := l.execute(sctx)
	switch {
	case err == nil:
		if cerr := l.complete(result, nil); cerr != nil {
			w.abandon(grant, "completing", cerr)
			return
		}
		w.done.Add(1)
		w.cfg.Logf("worker %s: completed %s/%s", w.cfg.Name, grant.JobID, grant.Shard.ID)
	case isFenced(err) || sctx.Err() != nil:
		w.abandon(grant, "executing", err)
	default:
		// A genuine shard failure: report it, so the coordinator regrants
		// the shard from its last checkpoint (possibly back to us) or, after
		// its last allowed attempt, fails the job.
		w.errors.Add(1)
		w.cfg.Logf("worker %s: shard %s/%s failed: %v", w.cfg.Name, grant.JobID, grant.Shard.ID, err)
		if cerr := l.complete(nil, err); cerr != nil {
			w.abandon(grant, "reporting its failure", cerr)
		}
	}
}

func (w *Worker) abandon(grant *pool.ClaimResponse, stage string, err error) {
	w.abandoned.Add(1)
	w.cfg.Logf("worker %s: abandoning %s/%s while %s: %v",
		w.cfg.Name, grant.JobID, grant.Shard.ID, stage, err)
}

func isFenced(err error) bool {
	return errors.Is(err, pool.ErrFenced) || errors.Is(err, pool.ErrShardGone)
}

// heartbeatLoop renews the lease at a third of its TTL. A fencing rejection
// cancels the shard context; transient transport errors are left to the
// client's own retries and simply tried again next tick — the lease TTL is
// the real deadline.
func (l *lease) heartbeatLoop(ctx context.Context) {
	interval := time.Duration(l.grant.LeaseMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := l.w.cfg.Clock.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C():
		}
		_, err := l.w.cfg.Client.PoolHeartbeat(ctx, &pool.HeartbeatRequest{
			Worker: l.w.cfg.Name, JobID: l.grant.JobID,
			ShardID: l.grant.Shard.ID, Token: l.grant.Token,
		})
		if isFenced(err) {
			l.w.fenced.Add(1)
			l.w.cfg.Logf("worker %s: heartbeat fenced on %s/%s: %v",
				l.w.cfg.Name, l.grant.JobID, l.grant.Shard.ID, err)
			l.cancel()
			return
		}
		if err != nil && ctx.Err() == nil {
			l.w.cfg.Logf("worker %s: heartbeat %s/%s: %v", l.w.cfg.Name, l.grant.JobID, l.grant.Shard.ID, err)
		}
	}
}

// upload ships a progress checkpoint under its own timeout, detached from
// the shard context on purpose (see the package comment). A fencing
// rejection cancels the shard; no upload fails it.
func (l *lease) upload(cp *pool.Checkpoint) {
	data, err := pool.EncodePayload(cp)
	if err != nil {
		l.w.cfg.Logf("worker %s: encoding checkpoint for %s/%s: %v",
			l.w.cfg.Name, l.grant.JobID, l.grant.Shard.ID, err)
		return
	}
	uctx, ucancel := clockfault.WithTimeout(context.Background(), l.w.cfg.Clock, uploadTimeout)
	defer ucancel()
	err = l.w.cfg.Client.PoolCheckpoint(uctx, &pool.CheckpointUpload{
		Worker: l.w.cfg.Name, JobID: l.grant.JobID,
		ShardID: l.grant.Shard.ID, Token: l.grant.Token, Data: data,
	})
	switch {
	case isFenced(err):
		l.w.fenced.Add(1)
		l.w.cfg.Logf("worker %s: checkpoint upload fenced on %s/%s: %v",
			l.w.cfg.Name, l.grant.JobID, l.grant.Shard.ID, err)
		l.cancel()
	case err != nil:
		// Non-fatal: the next checkpoint supersedes this one, and the lease
		// heartbeat is what keeps the shard ours.
		l.w.cfg.Logf("worker %s: checkpoint upload %s/%s: %v",
			l.w.cfg.Name, l.grant.JobID, l.grant.Shard.ID, err)
	default:
		l.w.ckpts.Add(1)
	}
}

// complete reports the shard's result, or its failure, also on an
// independent timeout — completion is idempotent under our token, so the
// client may retry freely.
func (l *lease) complete(result *pool.ShardResult, failure error) error {
	cr := &pool.CompleteRequest{
		Worker: l.w.cfg.Name, JobID: l.grant.JobID,
		ShardID: l.grant.Shard.ID, Token: l.grant.Token,
	}
	var err error
	if failure != nil {
		cr.Error = failure.Error()
		cr.Error = cr.Error[:min(len(cr.Error), pool.MaxErrorBytes)]
	} else if cr.Result, err = pool.EncodePayload(result); err != nil {
		return fmt.Errorf("worker: encoding result: %w", err)
	}
	cctx, ccancel := clockfault.WithTimeout(context.Background(), l.w.cfg.Clock, uploadTimeout)
	defer ccancel()
	err = l.w.cfg.Client.PoolComplete(cctx, cr)
	if isFenced(err) {
		l.w.fenced.Add(1)
	}
	return err
}

// execute runs the granted shard from the previous holder's checkpoint,
// uploading every checkpoint it saves. A panic becomes the shard's error, so
// it is reported as a failed attempt and counts against the job's attempt
// limit; left alone it would kill the worker, and the lease would only
// expire and pass the shard on to kill the next one.
func (l *lease) execute(ctx context.Context) (res *pool.ShardResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("worker: shard %s/%s panicked: %v", l.grant.JobID, l.grant.Shard.ID, r)
		}
	}()
	var from *pool.Checkpoint
	if len(l.grant.Checkpoint) > 0 {
		from = new(pool.Checkpoint)
		if err := pool.DecodePayload(l.grant.Checkpoint, from); err != nil {
			return nil, err
		}
	}
	return l.w.execute(ctx, l.grant.Shard, from, func(cp *pool.Checkpoint) error {
		l.upload(cp)
		return nil
	})
}
