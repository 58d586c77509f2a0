package pool

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExecuteResumesToSameResult runs each shard kind once on one warm
// executor, capturing every checkpoint it saves, then resumes it from the
// first and from the last capture on a cold executor — the way a worker
// takes over a dead holder's shard — and requires the resumed result to
// encode exactly as the uninterrupted one.
func TestExecuteResumesToSameResult(t *testing.T) {
	cases := []ShardSpec{
		{ID: "trace", Kind: KindTrace, Bench: "cholesky", Threads: 16,
			Policy: "TECfan-FT", Scale: 0.05, CheckpointEvery: 1},
		{ID: "chaos/TECfan-FT/0", Kind: KindChaos, Bench: "cholesky", Threads: 16,
			Scale: 0.001, Seed: 7, Policies: []string{"TECfan-FT"},
			Scenarios: []string{"sensor-dropout", "tec-fail-off"}},
		{ID: "table1/0", Kind: KindTable1, Scale: 0.001, Indices: []int{0, 1}},
		{ID: "fig4/0", Kind: KindFig4, Scale: 0.001, Indices: []int{0, 1}},
	}
	ctx := context.Background()
	x := NewExecutor(nil)
	for _, sh := range cases {
		t.Run(sh.Kind, func(t *testing.T) {
			// Captured encoded, as a worker uploads them: a save must not
			// alias state the run goes on mutating.
			var saved [][]byte
			res, err := x.Execute(ctx, sh, nil, func(cp *Checkpoint) error {
				data, err := EncodePayload(cp)
				if err != nil {
					t.Fatal(err)
				}
				saved = append(saved, data)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := EncodePayload(res)
			if err != nil {
				t.Fatal(err)
			}
			if len(saved) < 2 {
				t.Fatalf("%d checkpoints saved, want at least 2", len(saved))
			}
			for _, at := range []int{0, len(saved) - 1} {
				var from Checkpoint
				if err := DecodePayload(saved[at], &from); err != nil {
					t.Fatal(err)
				}
				resaved := 0
				res, err := NewExecutor(nil).Execute(ctx, sh, &from, func(*Checkpoint) error { resaved++; return nil })
				if err != nil {
					t.Fatalf("resume from checkpoint %d: %v", at, err)
				}
				if sh.Kind == KindTrace && at > 0 && resaved >= len(saved) {
					t.Fatalf("resumed from snapshot %d but saved %d checkpoints again, as many as a fresh run", at, resaved)
				}
				got, err := EncodePayload(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("resumed from checkpoint %d of %d: result differs from the uninterrupted run", at, len(saved))
				}
			}
		})
	}
}

// runEncoded executes sh on x and encodes its result as a worker uploads it.
func runEncoded(ctx context.Context, x *Executor, sh ShardSpec) ([]byte, error) {
	res, err := x.Execute(ctx, sh, nil, func(*Checkpoint) error { return nil })
	if err != nil {
		return nil, err
	}
	return EncodePayload(res)
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on. The simulator polls Err once per control period, so the run it
// drives stops partway through, at a step that does not depend on timing.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestExecutorConcurrentReuse runs trace shards that derive their threshold
// on one Executor, in two orders from two goroutines at once, and requires
// each result to encode exactly as a fresh executor's run of the same shard:
// neither the shared model nor the threshold memo may leak one job into
// another. A base scenario canceled partway is not memoized; the next job
// derives the threshold again and gets the same result.
func TestExecutorConcurrentReuse(t *testing.T) {
	var shards []ShardSpec
	for _, b := range []struct {
		name    string
		threads int
	}{{"cholesky", 16}, {"lu", 4}} {
		for _, p := range []string{"TECfan-FT", "TECfan", "Fan-only"} {
			shards = append(shards, ShardSpec{ID: b.name + "/" + p, Kind: KindTrace,
				Bench: b.name, Threads: b.threads, Policy: p, Scale: 0.1})
		}
	}
	ctx := context.Background()
	want := make([][]byte, len(shards))
	for i, sh := range shards {
		var err error
		if want[i], err = runEncoded(ctx, NewExecutor(nil), sh); err != nil {
			t.Fatalf("%s: %v", sh.ID, err)
		}
	}

	x := NewExecutor(nil)
	var wg sync.WaitGroup
	for _, reverse := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range shards {
				i := k
				if reverse {
					i = len(shards) - 1 - k
				}
				got, err := runEncoded(ctx, x, shards[i])
				if err != nil {
					t.Errorf("%s (reverse %v): %v", shards[i].ID, reverse, err)
					continue
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("%s (reverse %v): result differs from a fresh executor's", shards[i].ID, reverse)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(x.thresholds.m); n != 2 {
		t.Errorf("%d thresholds memoized, want one per benchmark (2)", n)
	}

	y := NewExecutor(nil)
	cctx := &cancelAfter{Context: ctx, n: 2}
	if _, err := runEncoded(cctx, y, shards[0]); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "base scenario") {
		t.Fatalf("canceled base scenario: err = %v, want a canceled base scenario", err)
	}
	if n := len(y.thresholds.m); n != 0 {
		t.Fatalf("%d thresholds memoized after a canceled base scenario, want 0", n)
	}
	got, err := runEncoded(ctx, y, shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[0]) {
		t.Fatal("after a canceled base scenario, the result differs from a fresh executor's")
	}
}
