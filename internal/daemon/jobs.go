package daemon

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"

	"tecfan/internal/checkpoint"
	"tecfan/internal/exp"
	"tecfan/internal/numguard"
	"tecfan/internal/perf"
	"tecfan/internal/pool"
	"tecfan/internal/sim"
)

// persistedJob is the gob payload inside a job's checkpoint envelope. It
// carries everything the next incarnation needs: the spec (so the job is
// re-runnable even with zero progress), the in-process run's progress (the
// pinned threshold and sim snapshot of a trace job, the finished rows of a
// sweep), and the lease/fencing/result state when the job runs on the worker
// pool — persisted before every grant and completion ack, so a restarted
// coordinator can never regrant a token a worker already holds. A record
// an older tecfand wrote kept its progress in fields that are gone, so it
// decodes with no progress and its job restarts from zero.
type persistedJob struct {
	Spec     JobSpec
	Progress *pool.Checkpoint
	Pool     *pool.PersistedState
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

// testRunHook, when non-nil, replaces job execution entirely — the seam the
// supervisor tests use to inject panics and stalls without faking a
// simulation that misbehaves on cue.
var testRunHook func(ctx context.Context, id string, spec JobSpec) error

// runAttempt executes one supervised attempt of a job, resuming from the
// persisted checkpoint when one carries progress. Panics are recovered into
// errors so the supervisor treats them like any other restartable failure.
func (s *Server) runAttempt(ctx context.Context, id string, spec JobSpec) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("daemon: job %s panicked: %v", id, r)
		}
	}()
	if testRunHook != nil {
		return testRunHook(ctx, id, spec)
	}
	rec, lerr := s.loadJob(id)
	if lerr != nil {
		// A spec write skipped in degraded mode, or a corrupt checkpoint:
		// start from the spec we hold in memory.
		rec = &persistedJob{Spec: spec}
	}
	sweep := pool.SweepSpec{
		Kind: string(spec.Kind), Bench: spec.Bench, Threads: spec.Threads,
		Scale: spec.Scale, Seed: spec.Seed,
		Policy: spec.Policy, FanLevel: spec.FanLevel, Threshold: spec.Threshold,
		Scenario: spec.Scenario, Policies: spec.Policies, Scenarios: spec.Scenarios,
		CheckpointEvery: s.cfg.CheckpointEvery, Chunk: s.cfg.PoolChunk,
	}
	if s.pool != nil {
		return s.runPooled(ctx, id, spec, sweep, rec.Pool)
	}
	save := func(cp *pool.Checkpoint) error {
		s.heartbeat(id)
		err := s.persistJob(&persistedJob{Spec: spec, Progress: cp})
		if err != nil {
			// A checkpoint is an optimization, not correctness: failing to
			// widen it (torn write, EIO, ENOSPC — the latter just flipped
			// the daemon degraded) costs recompute-after-crash, never a
			// wrong result. Execute keeps running; only a failed threshold
			// pin fails the attempt.
			s.cfg.Logf("daemon: job %s: checkpoint not persisted: %v", id, err)
		}
		return err
	}
	res, err := s.exec.Execute(ctx, pool.Whole(sweep), rec.Progress, save)
	if err != nil {
		// A refused divergence is deterministic — restarting from the
		// checkpoint replays the identical fault — so record it for /readyz
		// before the supervisor burns its remaining attempts.
		var de *sim.DivergenceError
		if errors.As(err, &de) {
			s.noteDiverged(id, de.V)
		}
		return err
	}
	return s.writeJobResult(id, spec, []pool.ShardResult{*res})
}

// runPooled executes a job through the worker pool: plan the shards, hand
// them to the coordinator for leasing, wait for every shard to complete
// (workers drive all progress through the /pool endpoints), then merge the
// shard results into the same result file the in-process path writes
// (TestPooled*ByteIdenticalToInProcess).
func (s *Server) runPooled(ctx context.Context, id string, spec JobSpec, sweep pool.SweepSpec, restore *pool.PersistedState) error {
	shards, err := pool.Plan(sweep)
	if err != nil {
		return err
	}
	done, err := s.pool.AddJob(id, shards, restore, pool.JobHooks{
		Persist: func(st *pool.PersistedState) error {
			return s.persistJob(&persistedJob{Spec: spec, Pool: st})
		},
		OnEvent: func(event, shardID string) {
			// Worker progress is job liveness: without this, a long shard on
			// a healthy worker would trip the coordinator-side watchdog.
			s.heartbeat(id)
		},
	})
	if err != nil {
		return err
	}
	defer s.pool.DropJob(id)
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	payloads, ok := s.pool.Results(id)
	if !ok {
		// done closed without results: the job was dropped underneath us.
		return fmt.Errorf("daemon: job %s: pool job dropped before completion", id)
	}
	parts := make([]pool.ShardResult, len(payloads))
	for i, p := range payloads {
		if err := pool.DecodePayload(p, &parts[i]); err != nil {
			return fmt.Errorf("daemon: job %s shard %d: %w", id, i, err)
		}
	}
	return s.writeJobResult(id, spec, parts)
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
