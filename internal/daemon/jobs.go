package daemon

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tecfan/internal/checkpoint"
	"tecfan/internal/clockfault"
	"tecfan/internal/exp"
	"tecfan/internal/numguard"
	"tecfan/internal/perf"
	"tecfan/internal/pool"
	"tecfan/internal/sim"
)

// persistedJob is the gob payload inside a job's checkpoint envelope: the
// spec (so the job is re-runnable even with zero progress) and its pool
// state, per shard a fencing token, done flag, checkpoint and result. A
// local attempt persists it at every checkpoint; a pooled job also before
// every grant and completion ack, so a restarted coordinator can never
// regrant a token a worker holds. A record an older tecfand wrote decodes
// with no progress, and its job restarts from zero.
type persistedJob struct {
	Spec JobSpec
	Pool *pool.PersistedState
}

// persistJob checkpoints a job's state through its generational store: the
// previous snapshot rotates to a fallback slot, the new one lands atomically
// on the head. While the daemon is in ENOSPC degraded mode the write is
// skipped (and counted) instead of attempted: in-flight jobs keep computing,
// they just stop widening the checkpoint — at worst a restart recomputes
// from the last pre-degradation snapshot, which is exactly the crash
// guarantee the daemon already makes.
func (s *Server) persistJob(rec *persistedJob) error {
	if s.degraded.Load() {
		s.skippedWrites.Add(1)
		s.cfg.Logf("daemon: job %s: checkpoint skipped (storage degraded)", rec.Spec.ID)
		return nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return fmt.Errorf("daemon: encoding job %s: %w", rec.Spec.ID, err)
	}
	err := s.gens(rec.Spec.ID).Write(buf.Bytes())
	if err != nil {
		s.noteStorageError(err)
	}
	return err
}

// loadJob reads the newest verifiable checkpoint generation, falling back
// (and quarantining) past corrupt or truncated ones.
func (s *Server) loadJob(id string) (*persistedJob, error) {
	payload, err := s.gens(id).Read()
	if err != nil {
		return nil, err
	}
	var rec persistedJob
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("daemon: decoding job %s: %w", id, err)
	}
	return &rec, nil
}

// localLeaseTTL never lapses: a local lessee cannot die without the
// coordinator, and its stalls are WatchdogTimeout's to cancel.
const localLeaseTTL = time.Duration(1 << 61) // 73 years; twice it still fits a Duration

// register hands a listed job to the coordinator, resuming from restore: as
// one Whole shard for the local lessees, or as planned shards whose grants
// and completions are persisted for remote workers. A restored job that had
// already ended settles at once.
func (s *Server) register(j *job, restore *pool.PersistedState) {
	spec := j.spec
	sweep := pool.SweepSpec{
		Kind: string(spec.Kind), Bench: spec.Bench, Threads: spec.Threads,
		Scale: spec.Scale, Seed: spec.Seed,
		Policy: spec.Policy, FanLevel: spec.FanLevel, Threshold: spec.Threshold,
		Scenario: spec.Scenario, Policies: spec.Policies, Scenarios: spec.Scenarios,
		CheckpointEvery: s.cfg.CheckpointEvery, Chunk: s.cfg.PoolChunk,
	}
	opts := pool.JobOptions{MaxAttempts: s.cfg.MaxAttempts}
	shards := []pool.ShardSpec{pool.Whole(sweep)}
	var err error
	if s.cfg.PoolEnabled {
		shards, err = pool.Plan(sweep)
		opts.Persist = func(st *pool.PersistedState) error {
			return s.persistJob(&persistedJob{Spec: spec, Pool: st})
		}
	}
	if err == nil {
		err = s.pool.AddJob(spec.ID, shards, restore, opts)
	}
	if err != nil {
		s.finish(spec.ID, j, StateFailed, err.Error())
		return
	}
	s.settle(spec.ID)
}

// begin marks a granted job running. It returns nil, ending the job, when
// the job was canceled while its shard waited for the grant.
func (s *Server) begin(g *pool.ClaimResponse) *job {
	s.mu.Lock()
	j := s.jobs[g.JobID] // every registered job is listed
	live := !j.terminal() && !j.deleted && j.ctx.Err() == nil
	if live {
		if j.state == StateQueued {
			s.queued--
			j.state = StateRunning
		}
		j.attempts = max(j.attempts, g.Attempt)
	}
	s.mu.Unlock()
	if !live {
		s.finish(g.JobID, j, StateCanceled, context.Canceled.Error())
		return nil
	}
	return j
}

// lessee is one of the Workers in-process executors: it claims a shard from
// the coordinator, runs it, and reports the outcome there, as a remote
// worker does over HTTP. Only the drain ends Await: a local grant persists
// nothing that could fail.
func (s *Server) lessee(name string) {
	defer s.wg.Done()
	for {
		g, err := s.pool.Await(s.rootCtx, name)
		if err != nil {
			return
		}
		j := s.begin(g)
		if j == nil {
			continue
		}
		res, err := s.attempt(name, j, g)
		if err == nil {
			// Written before the lease completes: a result that cannot be
			// written fails the attempt, not the job.
			err = s.writeJobResult(g.JobID, j.spec, []pool.ShardResult{*res})
		}
		report := &pool.CompleteRequest{Worker: name, JobID: g.JobID, ShardID: g.Shard.ID, Token: g.Token}
		switch {
		case err == nil:
			if s.pool.Complete(report) == nil {
				s.finish(g.JobID, j, StateDone, "")
			}
		case j.ctx.Err() != nil: // DELETE or drain, after the checkpoint
			s.finish(g.JobID, j, StateCanceled, err.Error())
		default:
			// A refused divergence replays identically on every attempt:
			// latch it for /readyz now.
			var de *sim.DivergenceError
			if errors.As(err, &de) {
				s.noteDiverged(g.JobID, de.V)
			}
			report.Error = err.Error()
			if s.pool.Complete(report) == nil {
				s.settle(g.JobID)
			}
		}
	}
}

// attempt executes grant g from its checkpoint. A panic becomes the
// attempt's error, and so does a stall: an attempt that saves no checkpoint
// or finished row for WatchdogTimeout is canceled.
func (s *Server) attempt(name string, j *job, g *pool.ClaimResponse) (res *pool.ShardResult, err error) {
	ctx, stop := context.WithCancelCause(j.ctx)
	defer stop(nil)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("daemon: job %s panicked: %v", g.JobID, r)
		}
		if cause := context.Cause(ctx); err != nil && j.ctx.Err() == nil && cause != nil {
			err = cause
		}
	}()
	var from *pool.Checkpoint
	if len(g.Checkpoint) > 0 {
		from = new(pool.Checkpoint)
		if err := pool.DecodePayload(g.Checkpoint, from); err != nil {
			return nil, err
		}
	}
	var last atomic.Int64 // clockfault.Mono of the last save
	last.Store(int64(s.cfg.Clock.Mono()))
	if s.cfg.WatchdogTimeout > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for wait := s.cfg.WatchdogTimeout; wait > 0; {
				t := s.cfg.Clock.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
					return
				case <-t.C():
				}
				idle := s.cfg.Clock.Since(clockfault.Mono(last.Load()))
				wait = s.cfg.WatchdogTimeout - idle
			}
			stop(fmt.Errorf("daemon: job %s stalled: no checkpoint or row for %s", g.JobID, s.cfg.WatchdogTimeout))
		}()
	}
	return s.execute(ctx, g.Shard, from, func(cp *pool.Checkpoint) error {
		last.Store(int64(s.cfg.Clock.Mono()))
		return s.saveLocal(name, j, g, cp)
	})
}

// saveLocal uploads a local attempt's checkpoint to its lease, which hands
// it to the next attempt, and persists it — outside the coordinator's lock,
// so one job's fsync never holds up another's claim. A failed write costs
// recompute-after-crash, never a wrong result: the executor runs on, and
// only a failed threshold pin fails the attempt.
func (s *Server) saveLocal(name string, j *job, g *pool.ClaimResponse, cp *pool.Checkpoint) error {
	data, err := pool.EncodePayload(cp)
	if err == nil {
		err = s.pool.UploadCheckpoint(&pool.CheckpointUpload{
			Worker: name, JobID: g.JobID, ShardID: g.Shard.ID, Token: g.Token, Data: data,
		})
	}
	if err == nil {
		err = s.persistJob(&persistedJob{Spec: j.spec, Pool: &pool.PersistedState{
			Shards: []pool.PersistedShard{{ID: g.Shard.ID, Token: g.Token, Checkpoint: data}},
		}})
	}
	if err != nil {
		s.cfg.Logf("daemon: job %s: checkpoint not persisted: %v", g.JobID, err)
	}
	return err
}

// settle ends a job the coordinator reports ended — every shard done, or
// one out of attempts — writing a done job's merged result. Collect hands
// the outcome over once, so a job settles once however many shards
// complete at a time.
func (s *Server) settle(id string) {
	payloads, err := s.pool.Collect(id)
	if payloads == nil && err == nil || errors.Is(err, pool.ErrShardGone) {
		return // still running, or ended already
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	parts := make([]pool.ShardResult, len(payloads))
	for i := 0; err == nil && i < len(parts); i++ {
		err = pool.DecodePayload(payloads[i], &parts[i])
	}
	if err == nil {
		err = s.writeJobResult(id, j.spec, parts)
	}
	if err != nil {
		s.finish(id, j, StateFailed, err.Error())
		return
	}
	s.finish(id, j, StateDone, "")
}

// traceResult is the durable result of a trace job. The full per-period
// trace is included deliberately: a resumed run's result file must be
// byte-identical to an uninterrupted run's (the crucible entry
// restart-resume-identity), and the trace is where non-determinism would
// hide.
type traceResult struct {
	Spec       JobSpec          `json:"spec"`
	Threshold  float64          `json:"threshold"`
	Completed  bool             `json:"completed"`
	Metrics    perf.Metrics     `json:"metrics"`
	FinalTemps []float64        `json:"final_temps"`
	Trace      []sim.TracePoint `json:"trace"`
	// Numeric is the run's NumericHealth block: refinement/recovery counters
	// from the invariant auditor plus the structured diagnosis when a
	// divergence was confirmed.
	Numeric *numguard.Health `json:"numeric_health,omitempty"`
}

// table1Result / fig4Result are the durable results of the whole-table jobs.
type table1Result struct {
	Spec JobSpec         `json:"spec"`
	Rows []exp.Table1Row `json:"rows"`
}

type fig4Result struct {
	Spec  JobSpec        `json:"spec"`
	Cases []exp.Fig4Case `json:"cases"`
}

// writeJobResult merges a job's shard results — one for an in-process run,
// the planned shards for a pooled one — into its durable result file. Plan
// order is the in-process emission order, so concatenating the shards' rows
// reproduces the in-process rows; the threshold and the trace outcome come
// from the first shard (a trace job has one, and every chaos shard derives
// the same threshold). A divergence the run rode out in the controller's
// fail-safe latches /readyz here, for both paths.
//
// The file goes through the checkpoint envelope's atomic rename, so a crash
// can never tear it, and its SHA-256 checksum refuses a result rotted on
// disk instead of serving it as truth after restart.
func (s *Server) writeJobResult(id string, spec JobSpec, parts []pool.ShardResult) error {
	r := parts[0]
	for i, p := range parts {
		if p.Kind != string(spec.Kind) {
			return fmt.Errorf("daemon: job %s shard %d: result is for kind %q", id, i, p.Kind)
		}
		if i > 0 {
			r.Rows = append(r.Rows, p.Rows...)
			r.T1Rows = append(r.T1Rows, p.T1Rows...)
			r.Cases = append(r.Cases, p.Cases...)
		}
	}
	if r.Numeric != nil && r.Numeric.FailSafe && r.Numeric.Diagnosis != nil {
		s.noteDiverged(id, *r.Numeric.Diagnosis)
	}
	var v any
	switch spec.Kind {
	case KindTrace:
		v = traceResult{
			Spec: spec, Threshold: r.Threshold, Completed: r.Completed,
			Metrics: r.Metrics, FinalTemps: r.FinalTemps, Trace: r.Trace,
			Numeric: r.Numeric,
		}
	case KindChaos:
		v = &exp.ChaosResult{Bench: spec.Bench, Threads: spec.Threads, Threshold: r.Threshold, Seed: spec.Seed, Rows: r.Rows}
	case KindTable1:
		v = table1Result{Spec: spec, Rows: r.T1Rows}
	case KindFig4:
		v = fig4Result{Spec: spec, Cases: r.Cases}
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("daemon: encoding result %s: %w", id, err)
	}
	data = append(data, '\n')
	if err := checkpoint.WriteFileFS(s.cfg.FS, s.resultPath(id), data); err != nil {
		s.noteStorageError(err)
		return fmt.Errorf("daemon: result %s: %w", id, err)
	}
	return nil
}
