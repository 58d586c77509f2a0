package pool

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"tecfan/internal/clockfault"
)

// newFakeClock is the deterministic time source driving lease expiry in tests.
func newFakeClock() *clockfault.Manual {
	return clockfault.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}

func testShards(n int) []ShardSpec {
	out := make([]ShardSpec, n)
	for i := range out {
		out[i] = ShardSpec{ID: fmt.Sprintf("s%d", i), Kind: KindChaos}
	}
	return out
}

func TestClaimGrantAndComplete(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: time.Second, Clock: clk})
	var persisted *PersistedState
	done, err := c.AddJob("j", testShards(2), nil, JobHooks{
		Persist: func(st *PersistedState) error { persisted = st; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	g1, err := c.Claim("w1")
	if err != nil || g1 == nil {
		t.Fatalf("claim: %v %v", g1, err)
	}
	if g1.Shard.ID != "s0" || g1.Token != 1 {
		t.Fatalf("first grant = %s token %d, want s0 token 1", g1.Shard.ID, g1.Token)
	}
	if persisted == nil || persisted.Shards[0].Token != 1 {
		t.Fatalf("grant not persisted before reply: %+v", persisted)
	}
	g2, err := c.Claim("w2")
	if err != nil || g2 == nil || g2.Shard.ID != "s1" {
		t.Fatalf("second claim: %v %v", g2, err)
	}
	if g3, err := c.Claim("w3"); err != nil || g3 != nil {
		t.Fatalf("no-work claim should be nil,nil; got %v %v", g3, err)
	}

	for _, g := range []*ClaimResponse{g1, g2} {
		w := "w1"
		if g.Shard.ID == "s1" {
			w = "w2"
		}
		if err := c.Complete(&CompleteRequest{
			Worker: w, JobID: "j", ShardID: g.Shard.ID, Token: g.Token, Result: []byte("r"),
		}); err != nil {
			t.Fatalf("complete %s: %v", g.Shard.ID, err)
		}
	}
	select {
	case <-done:
	default:
		t.Fatal("job done channel not closed after all shards completed")
	}
	if res, ok := c.Results("j"); !ok || len(res) != 2 {
		t.Fatalf("results: %v %v", res, ok)
	}
	// Retrying a completed shard with the same token is an idempotent OK.
	if err := c.Complete(&CompleteRequest{
		Worker: "w1", JobID: "j", ShardID: "s0", Token: g1.Token, Result: []byte("r"),
	}); err != nil {
		t.Fatalf("idempotent complete retry: %v", err)
	}
}

func TestLeaseExpiryFencesAndReassigns(t *testing.T) {
	clk := newFakeClock()
	var logBuf strings.Builder
	var logMu sync.Mutex
	c := New(Config{LeaseTTL: time.Second, Clock: clk, Logf: func(f string, a ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logBuf, f+"\n", a...)
	}})
	if _, err := c.AddJob("j", testShards(1), nil, JobHooks{}); err != nil {
		t.Fatal(err)
	}
	g1, err := c.Claim("w1")
	if err != nil || g1 == nil {
		t.Fatal(err)
	}

	// Within the TTL the holder renews freely.
	clk.Advance(500 * time.Millisecond)
	if _, err := c.Heartbeat(&HeartbeatRequest{Worker: "w1", JobID: "j", ShardID: "s0", Token: g1.Token}); err != nil {
		t.Fatalf("in-lease heartbeat: %v", err)
	}

	// Past the TTL the lease is fenced on the holder's own heartbeat...
	clk.Advance(2 * time.Second)
	if _, err := c.Heartbeat(&HeartbeatRequest{Worker: "w1", JobID: "j", ShardID: "s0", Token: g1.Token}); !errors.Is(err, ErrFenced) {
		t.Fatalf("expired heartbeat: want ErrFenced, got %v", err)
	}
	// ...and the shard regrants under a strictly higher token.
	g2, err := c.Claim("w2")
	if err != nil || g2 == nil {
		t.Fatal(err)
	}
	if g2.Token <= g1.Token {
		t.Fatalf("regrant token %d not above fenced token %d", g2.Token, g1.Token)
	}

	// The zombie's late writes are all no-ops.
	if err := c.UploadCheckpoint(&CheckpointUpload{
		Worker: "w1", JobID: "j", ShardID: "s0", Token: g1.Token, Data: []byte("z"),
	}); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie checkpoint upload: want ErrFenced, got %v", err)
	}
	if err := c.Complete(&CompleteRequest{
		Worker: "w1", JobID: "j", ShardID: "s0", Token: g1.Token, Result: []byte("z"),
	}); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie complete: want ErrFenced, got %v", err)
	}
	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, "fenced checkpoint upload") {
		t.Fatalf("fenced upload not logged:\n%s", logs)
	}

	// The new holder's checkpoint and completion land normally, and the
	// zombie's rejected checkpoint never replaced a good one.
	if err := c.UploadCheckpoint(&CheckpointUpload{
		Worker: "w2", JobID: "j", ShardID: "s0", Token: g2.Token, Data: []byte("good"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(&CompleteRequest{
		Worker: "w2", JobID: "j", ShardID: "s0", Token: g2.Token, Result: []byte("done"),
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.FencedRejects < 2 || st.ExpiredLeases < 1 || st.ShardsDone != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCheckpointHandoffToNextClaimant(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: time.Second, Clock: clk})
	if _, err := c.AddJob("j", testShards(1), nil, JobHooks{}); err != nil {
		t.Fatal(err)
	}
	g1, _ := c.Claim("w1")
	if err := c.UploadCheckpoint(&CheckpointUpload{
		Worker: "w1", JobID: "j", ShardID: "s0", Token: g1.Token, Data: []byte("progress"),
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Second) // kill w1 by silence
	g2, err := c.Claim("w2")
	if err != nil || g2 == nil {
		t.Fatal(err)
	}
	if string(g2.Checkpoint) != "progress" {
		t.Fatalf("reassigned grant checkpoint = %q, want dead worker's upload", g2.Checkpoint)
	}
}

func TestCoordinatorRestartReAdoption(t *testing.T) {
	clk := newFakeClock()
	var persisted *PersistedState
	hooks := JobHooks{Persist: func(st *PersistedState) error { persisted = st; return nil }}
	c := New(Config{LeaseTTL: time.Second, Clock: clk})
	if _, err := c.AddJob("j", testShards(2), nil, hooks); err != nil {
		t.Fatal(err)
	}
	g1, _ := c.Claim("w1")
	if err := c.Complete(&CompleteRequest{
		Worker: "w1", JobID: "j", ShardID: "s0", Token: g1.Token, Result: []byte("r0"),
	}); err != nil {
		t.Fatal(err)
	}
	g2, _ := c.Claim("w1")

	// "Restart": a fresh coordinator restored from the persisted state.
	c2 := New(Config{LeaseTTL: time.Second, Clock: clk})
	if _, err := c2.AddJob("j", testShards(2), persisted, hooks); err != nil {
		t.Fatal(err)
	}
	// The live worker's heartbeat under its still-current token re-adopts
	// the lease rather than fencing the worker.
	if _, err := c2.Heartbeat(&HeartbeatRequest{
		Worker: "w1", JobID: "j", ShardID: g2.Shard.ID, Token: g2.Token,
	}); err != nil {
		t.Fatalf("re-adoption heartbeat: %v", err)
	}
	// The re-adopted shard is not up for grabs.
	if g, err := c2.Claim("w2"); err != nil || g != nil {
		t.Fatalf("claim after re-adoption: %v %v", g, err)
	}
	// And the done shard stayed done with its result intact.
	if err := c2.Complete(&CompleteRequest{
		Worker: "w1", JobID: "j", ShardID: g2.Shard.ID, Token: g2.Token, Result: []byte("r1"),
	}); err != nil {
		t.Fatal(err)
	}
	res, ok := c2.Results("j")
	if !ok || string(res[0]) != "r0" || string(res[1]) != "r1" {
		t.Fatalf("restored results: %q ok=%v", res, ok)
	}
}

func TestPersistFailureRefusesGrantAndCompletion(t *testing.T) {
	clk := newFakeClock()
	fail := true
	c := New(Config{LeaseTTL: time.Second, Clock: clk})
	if _, err := c.AddJob("j", testShards(1), nil, JobHooks{
		Persist: func(*PersistedState) error {
			if fail {
				return errors.New("disk gone")
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if g, err := c.Claim("w1"); err == nil {
		t.Fatalf("claim with failing persist should refuse, got %+v", g)
	}
	fail = false
	g, err := c.Claim("w1")
	if err != nil || g == nil {
		t.Fatal(err)
	}
	fail = true
	if err := c.Complete(&CompleteRequest{
		Worker: "w1", JobID: "j", ShardID: "s0", Token: g.Token, Result: []byte("r"),
	}); err == nil {
		t.Fatal("complete with failing persist should refuse the ack")
	}
	// Not durable means not done: the retry (persist healthy again) must
	// actually re-record, not short-circuit through the idempotent path.
	fail = false
	if err := c.Complete(&CompleteRequest{
		Worker: "w1", JobID: "j", ShardID: "s0", Token: g.Token, Result: []byte("r"),
	}); err != nil {
		t.Fatalf("retry after persist recovered: %v", err)
	}
	if res, ok := c.Results("j"); !ok || string(res[0]) != "r" {
		t.Fatalf("results after retry: %q ok=%v", res, ok)
	}
}

func TestDropJobAnswersShardGone(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: time.Second, Clock: clk})
	done, _ := c.AddJob("j", testShards(1), nil, JobHooks{})
	g, _ := c.Claim("w1")
	c.DropJob("j")
	select {
	case <-done:
	default:
		t.Fatal("drop must unblock the job waiter")
	}
	if _, err := c.Heartbeat(&HeartbeatRequest{
		Worker: "w1", JobID: "j", ShardID: "s0", Token: g.Token,
	}); !errors.Is(err, ErrShardGone) {
		t.Fatalf("heartbeat after drop: want ErrShardGone, got %v", err)
	}
}

// TestFencingTokensStrictlyMonotonicProperty drives a seeded random schedule
// of grants, heartbeats, expiries, completions, and coordinator
// crash-restore cycles, and asserts the property fencing correctness rests
// on: the sequence of tokens any worker ever observes for a given shard is
// strictly increasing — including across coordinator restarts, because
// observable tokens are persisted before they are handed out.
func TestFencingTokensStrictlyMonotonicProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := newFakeClock()
			const nShards = 4
			store := map[string]*PersistedState{}
			hooks := func(job string) JobHooks {
				return JobHooks{Persist: func(st *PersistedState) error {
					// Deep-copy: the coordinator may keep mutating its shards.
					cp := &PersistedState{Shards: append([]PersistedShard(nil), st.Shards...)}
					store[job] = cp
					return nil
				}}
			}
			newCoord := func() *Coordinator {
				c := New(Config{LeaseTTL: time.Second, Clock: clk})
				if _, err := c.AddJob("j", testShards(nShards), store["j"], hooks("j")); err != nil {
					t.Fatal(err)
				}
				return c
			}
			c := newCoord()

			lastObserved := map[string]uint64{} // shard → highest token ever granted
			held := map[string]*ClaimResponse{} // worker → live grant
			workers := []string{"w1", "w2", "w3", "w4"}

			for step := 0; step < 400; step++ {
				w := workers[rng.Intn(len(workers))]
				switch op := rng.Intn(10); {
				case op < 4: // claim
					g, err := c.Claim(w)
					if err != nil || g == nil {
						continue
					}
					if prev, ok := lastObserved[g.Shard.ID]; ok && g.Token <= prev {
						t.Fatalf("step %d: shard %s granted token %d after %d was observed",
							step, g.Shard.ID, g.Token, prev)
					}
					lastObserved[g.Shard.ID] = g.Token
					held[w] = g
				case op < 7: // heartbeat whatever this worker holds
					g := held[w]
					if g == nil {
						continue
					}
					if _, err := c.Heartbeat(&HeartbeatRequest{
						Worker: w, JobID: g.JobID, ShardID: g.Shard.ID, Token: g.Token,
					}); err != nil {
						delete(held, w) // fenced or gone: abandon
					}
				case op < 8: // complete
					g := held[w]
					if g == nil {
						continue
					}
					c.Complete(&CompleteRequest{
						Worker: w, JobID: g.JobID, ShardID: g.Shard.ID, Token: g.Token,
						Result: []byte("r"),
					})
					delete(held, w)
				case op < 9: // time passes; maybe past lease expiry
					clk.Advance(time.Duration(rng.Intn(1500)) * time.Millisecond)
				default: // coordinator crash + restore from persisted state
					c = newCoord()
				}
			}
		})
	}
}

func TestPlanChaosShardsPreserveSweepOrder(t *testing.T) {
	shards, err := Plan(SweepSpec{
		Kind: KindChaos, Bench: "cholesky", Threads: 16, Seed: 7,
		Policies:  []string{"TECfan", "TECfan-FT"},
		Scenarios: []string{"a", "b", "c"},
		Chunk:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		id    string
		pol   string
		scens []string
	}{
		{"chaos/TECfan/0", "TECfan", []string{"a", "b"}},
		{"chaos/TECfan/1", "TECfan", []string{"c"}},
		{"chaos/TECfan-FT/0", "TECfan-FT", []string{"a", "b"}},
		{"chaos/TECfan-FT/1", "TECfan-FT", []string{"c"}},
	}
	if len(shards) != len(want) {
		t.Fatalf("got %d shards, want %d", len(shards), len(want))
	}
	for i, w := range want {
		sh := shards[i]
		if sh.ID != w.id || fmt.Sprint(sh.Policies) != fmt.Sprint([]string{w.pol}) || fmt.Sprint(sh.Scenarios) != fmt.Sprint(w.scens) {
			t.Fatalf("shard %d = %+v, want %+v", i, sh, w)
		}
		if sh.Bench != "cholesky" || sh.Threads != 16 || sh.Seed != 7 {
			t.Fatalf("shard %d lost job fields: %+v", i, sh)
		}
	}
}

func TestPlanTraceAndTables(t *testing.T) {
	tr, err := Plan(SweepSpec{Kind: KindTrace, Bench: "fft", Threads: 4, Policy: "TECfan", CheckpointEvery: 50})
	if err != nil || len(tr) != 1 || tr[0].ID != "trace" || tr[0].CheckpointEvery != 50 {
		t.Fatalf("trace plan: %+v err %v", tr, err)
	}
	t1, err := Plan(SweepSpec{Kind: KindTable1, Chunk: 3})
	if err != nil || len(t1) == 0 {
		t.Fatalf("table1 plan: %v", err)
	}
	total := 0
	for i, sh := range t1 {
		if sh.ID != fmt.Sprintf("table1/%d", i) {
			t.Fatalf("shard id %q", sh.ID)
		}
		for _, idx := range sh.Indices {
			if idx != total {
				t.Fatalf("indices not contiguous in table order: %+v", t1)
			}
			total++
		}
	}
	f4, err := Plan(SweepSpec{Kind: KindFig4, Chunk: 100})
	if err != nil || len(f4) != 1 || len(f4[0].Indices) != total {
		t.Fatalf("fig4 plan: %+v err %v (table1 rows %d)", f4, err, total)
	}
	if _, err := Plan(SweepSpec{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind must refuse")
	}
}
