package pool

import (
	"context"
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
	if err := c.AddJob("j", testShards(2), nil, JobOptions{
		Persist: func(st *PersistedState) error { persisted = st; return nil },
	}); err != nil {
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

	for i, g := range []*ClaimResponse{g1, g2} {
		w := "w1"
		if g.Shard.ID == "s1" {
			w = "w2"
		}
		if err := c.Complete(&CompleteRequest{
			Worker: w, JobID: "j", ShardID: g.Shard.ID, Token: g.Token, Result: []byte("r"),
		}); err != nil {
			t.Fatalf("complete %s: %v", g.Shard.ID, err)
		}
		// Retrying a completed shard with the same token is an idempotent OK.
		if err := c.Complete(&CompleteRequest{
			Worker: w, JobID: "j", ShardID: g.Shard.ID, Token: g.Token, Result: []byte("r"),
		}); err != nil {
			t.Fatalf("idempotent complete retry: %v", err)
		}
		if res, err := c.Collect("j"); i == 0 && (res != nil || err != nil) {
			t.Fatalf("collect with a shard still leased: %q %v", res, err)
		}
	}
	if res, err := c.Collect("j"); err == nil || res != nil {
		t.Fatalf("second collect: %q %v, want the job gone", res, err)
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
	if err := c.AddJob("j", testShards(1), nil, JobOptions{}); err != nil {
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
	if err := c.AddJob("j", testShards(1), nil, JobOptions{}); err != nil {
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
	hooks := JobOptions{Persist: func(st *PersistedState) error { persisted = st; return nil }}
	c := New(Config{LeaseTTL: time.Second, Clock: clk})
	if err := c.AddJob("j", testShards(2), nil, hooks); err != nil {
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
	if err := c2.AddJob("j", testShards(2), persisted, hooks); err != nil {
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
	res, err := c2.Collect("j")
	if err != nil || len(res) != 2 || string(res[0]) != "r0" || string(res[1]) != "r1" {
		t.Fatalf("restored results: %q %v", res, err)
	}
}

func TestPersistFailureRefusesGrantAndCompletion(t *testing.T) {
	clk := newFakeClock()
	fail := true
	c := New(Config{LeaseTTL: time.Second, Clock: clk})
	if err := c.AddJob("j", testShards(1), nil, JobOptions{
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
	if res, err := c.Collect("j"); err != nil || len(res) != 1 || string(res[0]) != "r" {
		t.Fatalf("results after retry: %q %v", res, err)
	}
}

func TestDropJobAnswersShardGone(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: time.Second, Clock: clk})
	_ = c.AddJob("j", testShards(1), nil, JobOptions{})
	g, _ := c.Claim("w1")
	c.DropJob("j")
	if _, err := c.Collect("j"); !errors.Is(err, ErrShardGone) {
		t.Fatalf("collect after drop: want ErrShardGone, got %v", err)
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
			hooks := func(job string) JobOptions {
				return JobOptions{Persist: func(st *PersistedState) error {
					// Deep-copy: the coordinator may keep mutating its shards.
					cp := &PersistedState{Shards: append([]PersistedShard(nil), st.Shards...)}
					store[job] = cp
					return nil
				}}
			}
			newCoord := func() *Coordinator {
				c := New(Config{LeaseTTL: time.Second, Clock: clk})
				if err := c.AddJob("j", testShards(nShards), store["j"], hooks("j")); err != nil {
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
				case op < 8: // complete, or report a failed attempt
					g := held[w]
					if g == nil {
						continue
					}
					cr := &CompleteRequest{Worker: w, JobID: g.JobID, ShardID: g.Shard.ID, Token: g.Token, Result: []byte("r")}
					if rng.Intn(2) == 0 {
						cr.Result, cr.Error = nil, "boom"
					}
					c.Complete(cr)
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

// TestFailedAttemptRegrantsThenFailsJob: a reported failure fences its
// holder and regrants the shard from its last checkpoint as the next
// attempt; a lease that expires is not a failed attempt; the MaxAttempts-th
// failure fails the job with the cause.
func TestFailedAttemptRegrantsThenFailsJob(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: time.Second, Clock: clk})
	if err := c.AddJob("j", testShards(1), nil, JobOptions{MaxAttempts: 2}); err != nil {
		t.Fatal(err)
	}
	claim := func(w string, attempt int) *ClaimResponse {
		t.Helper()
		g, err := c.Claim(w)
		if err != nil || g == nil {
			t.Fatalf("claim by %s: %v %v", w, g, err)
		}
		if g.Attempt != attempt || string(g.Checkpoint) != "ck" {
			t.Fatalf("grant to %s: attempt %d checkpoint %q, want attempt %d from \"ck\"", w, g.Attempt, g.Checkpoint, attempt)
		}
		return g
	}
	fail := func(w string, g *ClaimResponse, cause string) error {
		return c.Complete(&CompleteRequest{Worker: w, JobID: "j", ShardID: "s0", Token: g.Token, Error: cause})
	}

	g1, _ := c.Claim("w1")
	if err := c.UploadCheckpoint(&CheckpointUpload{Worker: "w1", JobID: "j", ShardID: "s0", Token: g1.Token, Data: []byte("ck")}); err != nil {
		t.Fatal(err)
	}
	if err := fail("w1", g1, "transient"); err != nil {
		t.Fatal(err)
	}
	if err := fail("w1", g1, "transient"); !errors.Is(err, ErrFenced) {
		t.Fatalf("second report under the failed token: want ErrFenced, got %v", err)
	}
	g2 := claim("w2", 2)
	clk.Advance(2 * time.Second) // w2 dies: its lease expires, which is no failure
	g3 := claim("w3", 2)
	if g3.Token <= g2.Token || g2.Token <= g1.Token {
		t.Fatalf("tokens %d, %d, %d not strictly increasing", g1.Token, g2.Token, g3.Token)
	}
	if res, err := c.Collect("j"); res != nil || err != nil {
		t.Fatalf("collect while running: %q %v", res, err)
	}
	if err := fail("w3", g3, "still broken"); err != nil {
		t.Fatal(err)
	}
	if g, err := c.Claim("w4"); g != nil || err != nil {
		t.Fatalf("claim on a failed job: %+v %v", g, err)
	}
	if _, err := c.Collect("j"); err == nil || !strings.Contains(err.Error(), "attempt 2/2: still broken") {
		t.Fatalf("failed job's collect = %v, want the cause of its last attempt", err)
	}
	var fails int
	for _, e := range c.Leases() {
		if e.Event == EventFail {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("ledger holds %d fail events, want 2", fails)
	}
}

// TestAwaitWakesOnSignalAndWithinTTL: a waiting Await is woken by new work,
// not a poll, and wakes on its own within a lease TTL, which is what frees
// a lapsed lease.
func TestAwaitWakesOnSignalAndWithinTTL(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: time.Second, Clock: clk})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	await := func(w string) <-chan *ClaimResponse {
		got := make(chan *ClaimResponse, 1)
		go func() {
			g, _ := c.Await(ctx, w) // nil once the test ends
			got <- g
		}()
		return got
	}

	got := await("w1")
	time.Sleep(10 * time.Millisecond) // let it block: no work yet
	if err := c.AddJob("j", testShards(1), nil, JobOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-got:
		if g == nil || g.Shard.ID != "s0" {
			t.Fatalf("woken Await granted %+v", g)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Await not woken by AddJob")
	}

	// w1 goes silent. Nothing signals w2: its own TTL wake must find the
	// lapsed lease, within a few TTLs of (manual) time.
	got = await("w2")
	for advanced := time.Duration(0); ; advanced += 500 * time.Millisecond {
		if advanced > 3*time.Second {
			t.Fatal("waiting Await did not claim the lapsed lease within a few TTLs")
		}
		clk.Advance(500 * time.Millisecond)
		select {
		case g := <-got:
			if g == nil || g.Shard.ID != "s0" || g.Attempt != 1 {
				t.Fatalf("regrant after the lapse = %+v", g)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestLedgerKeepsNewestAtCap: the ledger keeps exactly its newest ledgerCap
// events, in Seq order, and counts the older ones as dropped, across every
// cut-back of its backing slice.
func TestLedgerKeepsNewestAtCap(t *testing.T) {
	c := New(Config{Clock: newFakeClock()})
	total := 0
	record := func(n int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := 0; i < n; i++ {
			c.recordLocked(EventGrant, "j", "s0", "w", uint64(total+1))
			total++
		}
	}
	check := func() {
		t.Helper()
		got := c.Leases()
		kept := min(total, ledgerCap)
		if len(got) != kept {
			t.Fatalf("after %d events the ledger holds %d, want %d", total, len(got), kept)
		}
		for i, e := range got {
			if want := int64(total - kept + i); e.Seq != want || e.Token != uint64(want+1) {
				t.Fatalf("after %d events, kept event %d = %+v, want seq %d", total, i, e, want)
			}
		}
		if d := c.Stats().LedgerDropped; d != int64(total-kept) {
			t.Fatalf("after %d events LedgerDropped = %d, want %d", total, d, total-kept)
		}
	}
	for _, n := range []int{ledgerCap - 1, 1, 1, ledgerCap - 1, 1, 1, 2*ledgerCap + 7} {
		record(n)
		check()
	}
	if cap(c.ledger) > 4*ledgerCap {
		t.Fatalf("ledger backing array grew to %d events", cap(c.ledger))
	}
}
