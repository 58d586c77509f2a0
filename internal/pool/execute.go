package pool

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"

	"tecfan/internal/exp"
	"tecfan/internal/fault"
	"tecfan/internal/numfault"
	"tecfan/internal/numguard"
	"tecfan/internal/perf"
	"tecfan/internal/sim"
	"tecfan/internal/workload"
)

// Checkpoint is a shard's progress: the trace kind's pinned threshold and
// the snapshot to resume from, or the rows a sweep kind has finished so far.
// The daemon persists it inside its job record; a pool worker uploads it,
// gob-encoded, for the shard's next holder.
type Checkpoint struct {
	Threshold float64
	Snap      *sim.Snapshot
	Rows      []exp.ChaosRow  // chaos
	T1Rows    []exp.Table1Row // table1
	Cases     []exp.Fig4Case  // fig4
}

// ShardResult is a finished shard: the trace kind's run outcome, or a sweep
// kind's rows in emission order. A chaos shard also carries the threshold it
// derived, which every shard of a job derives identically.
type ShardResult struct {
	// Kind is the shard kind that produced the result. The daemon refuses
	// to merge a result of any other kind, including one an older build
	// wrote, which carried none and could decode as an empty row set.
	Kind       string
	Threshold  float64
	Completed  bool
	Metrics    perf.Metrics
	FinalTemps []float64
	Trace      []sim.TracePoint
	Numeric    *numguard.Health
	Rows       []exp.ChaosRow
	T1Rows     []exp.Table1Row
	Cases      []exp.Fig4Case
}

// Execute runs one shard, resuming from a checkpoint when from is non-nil.
// It is the only place a job kind turns into a simulation: the daemon
// executes Whole(sweep) through it in-process, and a pool worker executes
// each Plan(sweep) shard it is granted, which is what makes the merged
// pooled result byte-identical to the in-process one.
//
// save receives every checkpoint. A trace shard first saves its threshold,
// derived from the base scenario unless given, so every later attempt runs
// against the same one; an error from that save fails the run. Every later
// save is progress only: its error is the caller's to report, and the run
// goes on. nf arms numerical chaos for trace shards.
func Execute(ctx context.Context, sh ShardSpec, from *Checkpoint, nf *numfault.Schedule, save func(*Checkpoint) error) (*ShardResult, error) {
	if from == nil {
		from = &Checkpoint{}
	}
	env := exp.NewEnv()
	if sh.Scale > 0 {
		env.Scale = sh.Scale
	}
	out := &ShardResult{Kind: sh.Kind}
	var err error
	switch sh.Kind {
	case KindTrace:
		env.NumFaults = nf
		err = executeTrace(ctx, env, sh, from, save, out)
	case KindChaos:
		rows := rowOptions(nil, from.Rows, save, func(r []exp.ChaosRow) *Checkpoint { return &Checkpoint{Rows: r} })
		var res *exp.ChaosResult
		res, err = env.ChaosContext(ctx, exp.ChaosOptions{
			Bench: sh.Bench, Threads: sh.Threads,
			Policies: sh.Policies, Scenarios: sh.Scenarios, Seed: sh.Seed,
			Done: rows.Done, OnRow: rows.OnRow,
		})
		if err == nil {
			out.Threshold, out.Rows = res.Threshold, res.Rows
		}
	case KindTable1:
		out.T1Rows, err = env.Table1Opt(ctx, rowOptions(sh.Indices, from.T1Rows, save,
			func(r []exp.Table1Row) *Checkpoint { return &Checkpoint{T1Rows: r} }))
	case KindFig4:
		out.Cases, err = env.Fig4Opt(ctx, rowOptions(sh.Indices, from.Cases, save,
			func(c []exp.Fig4Case) *Checkpoint { return &Checkpoint{Cases: c} }))
	default:
		err = fmt.Errorf("pool: unknown shard kind %q", sh.Kind)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// executeTrace derives (or restores) the threshold, pins it, then runs — or
// resumes — the simulation with snapshot checkpoints at the shard's cadence.
func executeTrace(ctx context.Context, env *exp.Env, sh ShardSpec, from *Checkpoint, save func(*Checkpoint) error, out *ShardResult) error {
	if sh.Scenario != "" {
		sc, err := fault.ByName(sh.Scenario)
		if err != nil {
			return err
		}
		env.Faults = &sc
		env.FaultSeed = sh.Seed
	}
	b, err := workload.ByName(sh.Bench, sh.Threads, env.Leak)
	if err != nil {
		return err
	}
	sb := env.Scaled(b)

	threshold := from.Threshold
	if threshold == 0 {
		threshold = sh.Threshold
	}
	if threshold == 0 {
		base, err := env.BaseScenarioContext(ctx, sb)
		if err != nil {
			return fmt.Errorf("pool: trace base scenario: %w", err)
		}
		threshold = base.Metrics.PeakTemp
	}
	if err := save(&Checkpoint{Threshold: threshold, Snap: from.Snap}); err != nil {
		return err
	}

	cfg := env.SimConfig(sb, threshold, sh.FanLevel)
	cfg.RecordTrace = true
	cfg.CheckpointEvery = sh.CheckpointEvery
	cfg.OnCheckpoint = func(snap *sim.Snapshot) error {
		_ = save(&Checkpoint{Threshold: threshold, Snap: snap})
		return ctx.Err() // a canceled run stops at the checkpoint it just saved
	}
	ctl, err := env.Controller(sh.Policy)
	if err != nil {
		return err
	}
	r, err := sim.NewRunner(cfg, ctl)
	if err != nil {
		return err
	}
	var res *sim.Result
	if from.Snap != nil {
		res, err = r.Resume(ctx, from.Snap)
	} else {
		res, err = r.RunContext(ctx)
	}
	if err != nil {
		return err
	}
	out.Threshold, out.Completed, out.Metrics = threshold, res.Completed, res.Metrics
	out.FinalTemps, out.Trace, out.Numeric = res.FinalTemps, res.Trace, res.Numeric
	return nil
}

// rowOptions runs a sweep shard's rows (indices) resuming from the rows its
// checkpoint holds (done), and saves a checkpoint, built by ckpt, after
// every emitted row. A row replaces
// an earlier one with the same Key: the exp sweeps replay Done rows through
// OnRow, and a cell must appear once in a checkpoint.
func rowOptions[T exp.Row](indices []int, done []T, save func(*Checkpoint) error, ckpt func([]T) *Checkpoint) exp.RowOptions[T] {
	rows := append([]T(nil), done...)
	return exp.RowOptions[T]{Indices: indices, Done: done, OnRow: func(row T) {
		i := slices.IndexFunc(rows, func(r T) bool { return r.Key() == row.Key() })
		if i < 0 {
			rows = append(rows, row)
		} else {
			rows[i] = row
		}
		_ = save(ckpt(rows))
	}}
}

// EncodePayload gob-encodes a shard checkpoint or result (a struct or a
// pointer to one) for the wire. Only its non-zero fields go out: gob
// describes the type of every field it sends, and the other kinds' row and
// snapshot types would triple a payload, which the coordinator copies into
// every persist of the job. DecodePayload fills the full struct by field
// name.
func EncodePayload(v any) ([]byte, error) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	var fields []reflect.StructField
	var vals []reflect.Value
	for i := 0; i < rv.NumField(); i++ {
		if !rv.Field(i).IsZero() {
			fields = append(fields, rv.Type().Field(i))
			vals = append(vals, rv.Field(i))
		}
	}
	if len(fields) > 0 {
		pv := reflect.New(reflect.StructOf(fields)).Elem()
		for i, f := range vals {
			pv.Field(i).Set(f)
		}
		v = pv.Interface()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("pool: encoding payload: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePayload gob-decodes a shard payload into v, bounding the input the
// same way the wire decoders do.
func DecodePayload(data []byte, v any) error {
	if len(data) > MaxBlobBytes {
		return fmt.Errorf("%w: payload %d bytes (max %d)", ErrWireTooLarge, len(data), MaxBlobBytes)
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("pool: decoding payload: %w", err)
	}
	return nil
}
