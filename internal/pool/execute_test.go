package pool

import (
	"bytes"
	"context"
	"testing"
)

// TestExecuteResumesToSameResult runs each shard kind once, capturing every
// checkpoint it saves, then resumes it from the first and from the last
// capture — the way a worker resumes a dead holder's shard — and requires
// the resumed result to encode exactly as the uninterrupted one.
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
	for _, sh := range cases {
		t.Run(sh.Kind, func(t *testing.T) {
			// Captured encoded, as a worker uploads them: a save must not
			// alias state the run goes on mutating.
			var saved [][]byte
			res, err := Execute(ctx, sh, nil, nil, func(cp *Checkpoint) error {
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
				res, err := Execute(ctx, sh, &from, nil, func(*Checkpoint) error { resaved++; return nil })
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
