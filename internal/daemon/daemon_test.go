package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tecfan/internal/checkpoint"
	"tecfan/internal/diskfault"
	"tecfan/internal/exp"
	"tecfan/internal/pool"
)

// fastConfig is a test-sized daemon: checkpoints every period, logs to t.
func fastConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		StateDir:        t.TempDir(),
		CheckpointEvery: 1,
		WatchdogTimeout: -1, // off unless a test wants it
		Logf:            t.Logf,
		rng:             rand.New(rand.NewSource(1)),
	}
}

// stubExec replaces s's executor with run, which sees each attempt's
// context and save function. An attempt run returns nil for completes its
// shard with an empty result of the shard's kind. Set it before the first
// submission: the grant that hands a job to an executor orders the two.
func stubExec(s *Server, run func(ctx context.Context, save func(*pool.Checkpoint) error) error) {
	s.execute = func(ctx context.Context, sh pool.ShardSpec, _ *pool.Checkpoint, save func(*pool.Checkpoint) error) (*pool.ShardResult, error) {
		if err := run(ctx, save); err != nil {
			return nil, err
		}
		return &pool.ShardResult{Kind: sh.Kind}, nil
	}
}

// blockUntil is a stand-in attempt that holds its executor until release
// closes or the attempt is canceled, then completes.
func blockUntil(release <-chan struct{}) func(context.Context, func(*pool.Checkpoint) error) error {
	return func(ctx context.Context, _ func(*pool.Checkpoint) error) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}
}

// progress decodes the checkpoint a job record carries for its one shard,
// or returns nil.
func progress(rec *persistedJob) *pool.Checkpoint {
	if rec == nil || rec.Pool == nil || len(rec.Pool.Shards) != 1 || rec.Pool.Shards[0].Checkpoint == nil {
		return nil
	}
	var cp pool.Checkpoint
	if pool.DecodePayload(rec.Pool.Shards[0].Checkpoint, &cp) != nil {
		return nil
	}
	return &cp
}

// checkpointRecord is the record a local attempt persists for cp.
func checkpointRecord(t *testing.T, spec JobSpec, cp *pool.Checkpoint) *persistedJob {
	t.Helper()
	data, err := pool.EncodePayload(cp)
	if err != nil {
		t.Fatal(err)
	}
	return &persistedJob{Spec: spec, Pool: &pool.PersistedState{
		Shards: []pool.PersistedShard{{ID: string(spec.Kind), Token: 1, Checkpoint: data}},
	}}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// traceSpec is the small real simulation job used by end-to-end tests.
func traceSpec(id string) JobSpec {
	return JobSpec{
		ID: id, Kind: KindTrace,
		Bench: "cholesky", Threads: 16, Policy: "TECfan-FT", Scale: 0.2,
	}
}

func waitState(t *testing.T, s *Server, id string, want JobState) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Wait(ctx, id); err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	v, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	if v.State != want {
		t.Fatalf("job %s state = %s (%s), want %s", id, v.State, v.Error, want)
	}
	return v
}

// TestSubmitValidation refuses each bad spec, in Submit and with 400 over
// HTTP.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, fastConfig(t))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	bad := []JobSpec{
		{},                                     // no kind
		{Kind: "nope", Bench: "x", Threads: 1}, // unknown kind
		{Kind: KindTrace, Threads: 1},          // no bench
		{Kind: KindTrace, Bench: "x"},          // no threads
		{Kind: KindTrace, Bench: "x", Threads: 1, ID: "bad id!"},       // invalid id
		{Kind: KindTrace, Bench: "x", Threads: 1, FanLevel: -1},        // fan level below the fastest
		{Kind: KindTrace, Bench: "x", Threads: 1, FanLevel: fanLevels}, // past the slowest
	}
	for _, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted", spec)
		}
		body, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	slowest := JobSpec{Kind: KindTrace, Bench: "x", Threads: 1, FanLevel: fanLevels - 1}
	if err := validateSpec(&slowest); err != nil {
		t.Errorf("slowest fan level refused: %v", err)
	}
}

// TestJobLifecycleHTTP drives the full happy path over the wire: submit a
// real simulation job, poll status, fetch the durable result.
func TestJobLifecycleHTTP(t *testing.T) {
	s := newTestServer(t, fastConfig(t))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}

	body, _ := json.Marshal(traceSpec("http-e2e"))
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID != "http-e2e" {
		t.Fatalf("submit = %d id=%q", resp.StatusCode, sub.ID)
	}

	// A result request before completion answers 409 with the status.
	if resp, err = http.Get(srv.URL + "/jobs/http-e2e/result"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("early result = %d", resp.StatusCode)
	}

	waitState(t, s, "http-e2e", StateDone)

	if resp, err = http.Get(srv.URL + "/jobs/http-e2e/result"); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Threshold float64 `json:"threshold"`
		Completed bool    `json:"completed"`
		Trace     []struct{ Time float64 }
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !res.Completed || res.Threshold <= 0 || len(res.Trace) == 0 {
		t.Fatalf("result = %d completed=%v threshold=%v trace=%d points",
			resp.StatusCode, res.Completed, res.Threshold, len(res.Trace))
	}

	if resp, err = http.Get(srv.URL + "/jobs/nope"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs/nope = %d", resp.StatusCode)
	}
}

// TestQueueSheddingHTTP fills the bounded queue behind a deliberately slow
// job and asserts the overflow submission is shed with 429 + Retry-After.
func TestQueueSheddingHTTP(t *testing.T) {
	block := make(chan struct{})
	cfg := fastConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 2
	s := newTestServer(t, cfg)
	stubExec(s, blockUntil(block))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func(id string) *http.Response {
		body, _ := json.Marshal(traceSpec(id))
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// First job occupies the worker; wait until it leaves the queue.
	if resp := submit("slow"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit slow = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := s.Job("slow"); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Two more fill the queue; the third overflows.
	for _, id := range []string{"q1", "q2"} {
		if resp := submit(id); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s = %d", id, resp.StatusCode)
		}
	}
	resp := submit("overflow")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(block)
	for _, id := range []string{"slow", "q1", "q2"} {
		waitState(t, s, id, StateDone)
	}
}

// TestSupervisorPanicRestart: a local attempt that panics is isolated and
// reported as failed, and the coordinator grants the job again, from its
// last checkpoint; the second attempt succeeds.
func TestSupervisorPanicRestart(t *testing.T) {
	var attempts atomic.Int32
	var resumedFrom atomic.Value
	s := newTestServer(t, fastConfig(t))
	s.execute = func(ctx context.Context, sh pool.ShardSpec, from *pool.Checkpoint, save func(*pool.Checkpoint) error) (*pool.ShardResult, error) {
		if attempts.Add(1) == 1 {
			if err := save(&pool.Checkpoint{Threshold: 42}); err != nil {
				return nil, err
			}
			panic("first attempt explodes")
		}
		resumedFrom.Store(from)
		return &pool.ShardResult{Kind: sh.Kind}, nil
	}
	id, err := s.Submit(traceSpec("panicky"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, s, id, StateDone)
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", v.Attempts)
	}
	if from, _ := resumedFrom.Load().(*pool.Checkpoint); from == nil || from.Threshold != 42 {
		t.Fatalf("second attempt resumed from %+v, want the first attempt's checkpoint", from)
	}
}

// TestSupervisorGivesUp: a job that fails every attempt ends failed after
// MaxAttempts, not in an infinite restart loop.
func TestSupervisorGivesUp(t *testing.T) {
	var attempts atomic.Int32
	cfg := fastConfig(t)
	cfg.MaxAttempts = 3
	s := newTestServer(t, cfg)
	stubExec(s, func(context.Context, func(*pool.Checkpoint) error) error {
		attempts.Add(1)
		return errors.New("always broken")
	})
	id, err := s.Submit(traceSpec("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, s, id, StateFailed)
	if got := attempts.Load(); got != 3 {
		t.Fatalf("ran %d attempts, want 3", got)
	}
	if !strings.Contains(v.Error, "always broken") || v.Attempts != 3 {
		t.Fatalf("terminal error %q after %d attempts does not carry the cause of the third", v.Error, v.Attempts)
	}
}

// TestWatchdogRestartsStalledAttempt: a local attempt that saves no
// checkpoint or row for WatchdogTimeout is canceled, and the job is granted
// again; the stall counts as a failed attempt.
func TestWatchdogRestartsStalledAttempt(t *testing.T) {
	var attempts atomic.Int32
	cfg := fastConfig(t)
	cfg.WatchdogTimeout = 50 * time.Millisecond
	s := newTestServer(t, cfg)
	stubExec(s, func(ctx context.Context, save func(*pool.Checkpoint) error) error {
		if attempts.Add(1) == 1 {
			// Checkpoints keep the attempt alive; then it stalls silently.
			for i := 0; i < 4; i++ {
				time.Sleep(20 * time.Millisecond)
				if err := save(&pool.Checkpoint{Threshold: 1}); err != nil {
					return err
				}
			}
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	id, err := s.Submit(traceSpec("stalled"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, s, id, StateDone)
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (stalled attempt regranted)", v.Attempts)
	}
}

// TestCancelStopsLocalAttempt: DELETE of a running local job cancels its
// attempt, which stops at its next control boundary and ends the job
// canceled, without a regrant.
func TestCancelStopsLocalAttempt(t *testing.T) {
	var attempts atomic.Int32
	started := make(chan struct{})
	s := newTestServer(t, fastConfig(t))
	stubExec(s, func(ctx context.Context, save func(*pool.Checkpoint) error) error {
		if attempts.Add(1) == 1 {
			close(started)
		}
		for ctx.Err() == nil { // one control period per iteration
			_ = save(&pool.Checkpoint{Threshold: 1})
			time.Sleep(time.Millisecond)
		}
		return ctx.Err()
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, err := s.Submit(traceSpec("doomed")); err != nil {
		t.Fatal(err)
	}
	<-started
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/doomed", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", resp.StatusCode)
	}
	v := waitState(t, s, "doomed", StateCanceled)
	if n := attempts.Load(); n != 1 || v.Attempts != 1 {
		t.Fatalf("canceled job ran %d attempts (view says %d), want 1", n, v.Attempts)
	}
}

// TestCanceledJobStaysGoneAfterRestart: a job a client canceled mid-run
// leaves no checkpoint behind, so the next incarnation on the same state
// dir neither lists nor runs it (a drained job, by contrast, resumes:
// TestRestartResumesAndMatches).
func TestCanceledJobStaysGoneAfterRestart(t *testing.T) {
	cfg := fastConfig(t)
	saved := make(chan struct{})
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stubExec(s1, func(ctx context.Context, save func(*pool.Checkpoint) error) error {
		for i := 0; ctx.Err() == nil; i++ {
			_ = save(&pool.Checkpoint{Threshold: 1})
			if i == 0 {
				close(saved)
			}
			time.Sleep(time.Millisecond)
		}
		return ctx.Err()
	})
	if _, err := s1.Submit(traceSpec("doomed")); err != nil {
		t.Fatal(err)
	}
	<-saved
	if err := s1.Cancel("doomed"); err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, "doomed", StateCanceled)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	if v, ok := s2.Job("doomed"); ok {
		t.Fatalf("canceled job came back after a restart as %s", v.State)
	}
	if rec := loadOrNil(s2, "doomed"); rec != nil {
		t.Fatal("canceled job's checkpoint survived the cancel")
	}
}

// TestPoolViewsServedWithoutPool: the coordinator leases every job, so a
// daemon without PoolEnabled still serves its ledger and counters, and a
// finished local job shows as one grant and one completion.
func TestPoolViewsServedWithoutPool(t *testing.T) {
	s := newTestServer(t, fastConfig(t))
	stubExec(s, func(context.Context, func(*pool.Checkpoint) error) error { return nil })
	if _, err := s.Submit(traceSpec("local")); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "local", StateDone)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var events []pool.LeaseEvent
	getJSON(t, srv.URL+"/pool/leases", &events)
	if len(events) != 2 || events[0].Event != pool.EventGrant || events[1].Event != pool.EventComplete {
		t.Fatalf("ledger = %+v, want one grant then one complete", events)
	}
	for i, e := range events {
		if e.Seq != int64(i) || e.JobID != "local" || e.Token != events[0].Token {
			t.Fatalf("ledger event %d = %+v", i, e)
		}
	}
	var st pool.Stats
	getJSON(t, srv.URL+"/pool/stats", &st)
	if st.Grants != 1 || st.Completes != 1 {
		t.Fatalf("pool stats = %+v, want one grant and one completion", st)
	}
	resp, err := http.Post(srv.URL+"/pool/claim", "application/json", strings.NewReader(`{"worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent {
		t.Fatalf("POST /pool/claim without PoolEnabled = %d, want it unmounted", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestDrainShedsAndCancels: after Shutdown begins, readiness flips, new
// submissions are refused, and running jobs are canceled.
func TestDrainShedsAndCancels(t *testing.T) {
	started := make(chan struct{})
	s := newTestServer(t, fastConfig(t))
	stubExec(s, func(ctx context.Context, _ func(*pool.Checkpoint) error) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, err := s.Submit(traceSpec("inflight")); err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained = %d, want 503", resp.StatusCode)
	}
	if _, err := s.Submit(traceSpec("late")); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while drained = %v, want ErrDraining", err)
	}
	v, _ := s.Job("inflight")
	if v.State != StateCanceled {
		t.Fatalf("in-flight job state after drain = %s, want canceled", v.State)
	}
}

// TestRestartResumesAndMatches is the in-process kill-and-resume drill: run a
// job partway on one daemon, drain it (persisting the cancellation
// checkpoint), bring up a second daemon on the same state dir, and require
// its finished result to be byte-identical to an uninterrupted daemon's.
func TestRestartResumesAndMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	spec := traceSpec("drill")

	// Uninterrupted reference on its own state dir.
	refDir := t.TempDir()
	refCfg := fastConfig(t)
	refCfg.StateDir = refDir
	ref := newTestServer(t, refCfg)
	if _, err := ref.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitState(t, ref, "drill", StateDone)
	want, err := os.ReadFile(ref.resultPath("drill"))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: drain once the first mid-run checkpoint lands.
	dir := t.TempDir()
	cfg1 := fastConfig(t)
	cfg1.StateDir = dir
	s1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if cp := progress(loadOrNil(s1, "drill")); cp != nil && cp.Snap != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no mid-run checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := s1.Job("drill"); v.State == StateDone {
		t.Skip("job finished before the drain landed; nothing to resume")
	}

	// Second incarnation resumes from the checkpoint and finishes.
	cfg2 := fastConfig(t)
	cfg2.StateDir = dir
	s2 := newTestServer(t, cfg2)
	v := waitState(t, s2, "drill", StateDone)
	if !v.Resumed {
		t.Fatal("restarted job not marked resumed")
	}
	got, err := os.ReadFile(s2.resultPath("drill"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	// The served checkpoint is cleaned up once the result is durable.
	if _, err := os.Stat(s2.ckptPath("drill")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived completion: %v", err)
	}
}

// TestRecoverIgnoresCorruptCheckpoint: a torn checkpoint on disk must not
// prevent startup — it is quarantined and logged.
func TestRecoverIgnoresCorruptCheckpoint(t *testing.T) {
	cfg := fastConfig(t)
	if err := os.WriteFile(cfg.StateDir+"/torn.ckpt", []byte("TECFCKPT but torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, cfg)
	if _, ok := s.Job("torn"); ok {
		t.Fatal("corrupt checkpoint produced a job")
	}
	if _, err := os.Stat(cfg.StateDir + "/torn.ckpt.bad-1"); err != nil {
		t.Fatalf("corrupt checkpoint not quarantined: %v", err)
	}
}

// TestMergeRefusesForeignShardResult: a table1 shard result an older build
// wrote ({Rows []exp.Table1Row}) decodes into pool.ShardResult without error
// but with no table rows. The merge must refuse it, not write an empty table.
func TestMergeRefusesForeignShardResult(t *testing.T) {
	type table1ShardResult struct{ Rows []exp.Table1Row }
	old, err := pool.EncodePayload(table1ShardResult{Rows: []exp.Table1Row{{Workload: "lu", Threads: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	var r pool.ShardResult
	if err := pool.DecodePayload(old, &r); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, fastConfig(t))
	if err := s.writeJobResult("old", JobSpec{Kind: KindTable1}, []pool.ShardResult{r}); err == nil {
		t.Fatal("merged a shard result that carries no kind")
	}
	if _, err := os.Stat(s.resultPath("old")); !os.IsNotExist(err) {
		t.Fatalf("result file written for a refused merge: %v", err)
	}
}

// TestChaosJobEndToEnd runs a tiny chaos sweep through the daemon and checks
// the durable result parses with the expected rows.
func TestChaosJobEndToEnd(t *testing.T) {
	s := newTestServer(t, fastConfig(t))
	id, err := s.Submit(JobSpec{
		ID: "chaos", Kind: KindChaos,
		Bench: "cholesky", Threads: 16, Scale: 0.001,
		Policies: []string{"TECfan-FT"}, Scenarios: []string{"sensor-dropout", "tec-fail-off"},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateDone)
	data, err := checkpoint.ReadFileFS(diskfault.OS, s.resultPath(id))
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Rows []struct{ Scenario, Policy string }
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("chaos result has %d rows, want 2: %s", len(res.Rows), data)
	}
}

// TestDuplicateID: a client-chosen id collides with an existing job.
func TestDuplicateID(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := newTestServer(t, fastConfig(t))
	stubExec(s, blockUntil(block))
	if _, err := s.Submit(traceSpec("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(traceSpec("dup")); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate submit = %v, want ErrDuplicateID", err)
	}
}

// sanity: the config defaulting never leaves a zero that matters.
func TestConfigDefaults(t *testing.T) {
	c := Config{StateDir: t.TempDir()}
	if err := c.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	if c.Workers < 1 || c.QueueDepth < 1 || c.CheckpointEvery < 1 ||
		c.MaxAttempts < 1 || c.WatchdogTimeout == 0 || c.Logf == nil || c.rng == nil {
		t.Fatalf("defaults incomplete: %+v", c)
	}
	if err := (&Config{}).fillDefaults(); err == nil {
		t.Fatal("empty StateDir accepted")
	}
}

// TestConcurrentExecutorsByteIdentical: a job's result does not depend on
// how many executors share the daemon's model. Six trace jobs with derived
// thresholds run on one executor and on two; each result file must match
// byte for byte (both daemons use the same job ids, so the whole file
// compares). Then a daemon is drained while both its executors are inside a
// job's snapshot checkpoint, and a second incarnation on the same state dir
// resumes both jobs to the same bytes.
func TestConcurrentExecutorsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	var specs []JobSpec
	for _, b := range []struct {
		name    string
		threads int
	}{{"cholesky", 16}, {"lu", 4}} {
		for _, p := range []string{"TECfan-FT", "TECfan", "Fan-only"} {
			specs = append(specs, JobSpec{ID: b.name + "-" + p, Kind: KindTrace,
				Bench: b.name, Threads: b.threads, Policy: p, Scale: 0.2})
		}
	}
	result := func(s *Server, id string) []byte {
		b, err := os.ReadFile(s.resultPath(id))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	run := func(workers int) map[string][]byte {
		cfg := fastConfig(t)
		cfg.Workers = workers
		cfg.QueueDepth = len(specs)
		s := newTestServer(t, cfg)
		for _, sp := range specs {
			if _, err := s.Submit(sp); err != nil {
				t.Fatal(err)
			}
		}
		out := map[string][]byte{}
		for _, sp := range specs {
			waitState(t, s, sp.ID, StateDone)
			out[sp.ID] = result(s, sp.ID)
		}
		return out
	}
	want := run(1)
	got := run(2)
	for _, sp := range specs {
		if !bytes.Equal(got[sp.ID], want[sp.ID]) {
			t.Errorf("%s: result on two executors differs from one executor's (%d vs %d bytes)",
				sp.ID, len(got[sp.ID]), len(want[sp.ID]))
		}
	}

	// Hold each job's first snapshot checkpoint in its fsync, so both
	// executors are mid-job when the drain begins.
	busy := []JobSpec{specs[0], specs[3]}
	gate := newSyncGate(func(id string, rec *persistedJob) bool {
		cp := progress(rec)
		return cp != nil && cp.Snap != nil
	})
	cfg := fastConfig(t)
	cfg.Workers = 2
	cfg.FS = gate
	s1 := newTestServer(t, cfg)
	t.Cleanup(gate.open) // before the server's shutdown: cleanups run last-in first-out
	for _, sp := range busy {
		if _, err := s1.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	gate.waitHeld(t, len(busy))
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s1.Shutdown(ctx)
	}()
	waitCond(t, "drain to begin", s1.Draining)
	gate.open()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	for _, sp := range busy {
		if v, _ := s1.Job(sp.ID); v.State != StateCanceled {
			t.Fatalf("%s drained in state %s, want canceled", sp.ID, v.State)
		}
		if cp := progress(loadOrNil(s1, sp.ID)); cp == nil || cp.Snap == nil {
			t.Fatalf("%s: no snapshot checkpoint after the drain", sp.ID)
		}
	}

	cfg.FS = nil
	s2 := newTestServer(t, cfg)
	for _, sp := range busy {
		if v := waitState(t, s2, sp.ID, StateDone); !v.Resumed {
			t.Fatalf("%s: restarted job not marked resumed", sp.ID)
		}
		if !bytes.Equal(result(s2, sp.ID), want[sp.ID]) {
			t.Errorf("%s: resumed result differs from the uninterrupted run", sp.ID)
		}
	}
}

// loadOrNil reads a job's record, or returns nil.
func loadOrNil(s *Server, id string) *persistedJob {
	rec, err := s.loadJob(id)
	if err != nil {
		return nil
	}
	return rec
}

// TestRestartBeyondQueueDepth: a daemon restarts over more interrupted jobs
// than its queue holds. With one executor and a queue of one, a job running
// and a job queued at the drain both come back, resumed, and the queued one
// runs to done.
func TestRestartBeyondQueueDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	cfg := fastConfig(t)
	cfg.Workers, cfg.QueueDepth = 1, 1
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := traceSpec("running")
	long.Scale = 50 // canceled long before it could end
	if _, err := s1.Submit(long); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "the long job to start", func() bool {
		v, _ := s1.Job("running")
		return v.State == StateRunning
	})
	if _, err := s1.Submit(traceSpec("queued")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	for _, id := range []string{"running", "queued"} {
		if v, ok := s2.Job(id); !ok || !v.Resumed {
			t.Fatalf("job %s not resumed after the restart: %+v", id, v)
		}
	}
	waitState(t, s2, "queued", StateDone)
}

// TestConcurrentLocalLeases: four local lessees over a mix of trace, chaos
// and table1 jobs write the same result bytes as one lessee.
func TestConcurrentLocalLeases(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	specs := []JobSpec{
		{ID: "tr-ft", Kind: KindTrace, Bench: "cholesky", Threads: 16, Policy: "TECfan-FT", Scale: 0.2},
		{ID: "tr-lu", Kind: KindTrace, Bench: "lu", Threads: 4, Policy: "TECfan", Scale: 0.2},
		{ID: "chaos", Kind: KindChaos, Bench: "cholesky", Threads: 16, Scale: 0.01,
			Policies: []string{"TECfan-FT"}, Scenarios: []string{"sensor-dropout", "tec-fail-off"}, Seed: 7},
		{ID: "t1", Kind: KindTable1, Scale: 0.001},
		{ID: "tr-fan", Kind: KindTrace, Bench: "water", Threads: 4, Policy: "Fan-only", Scale: 0.2},
	}
	run := func(workers int) map[string][]byte {
		cfg := fastConfig(t)
		cfg.Workers = workers
		cfg.QueueDepth = len(specs)
		s := newTestServer(t, cfg)
		for _, sp := range specs {
			if _, err := s.Submit(sp); err != nil {
				t.Fatal(err)
			}
		}
		out := map[string][]byte{}
		for _, sp := range specs {
			waitState(t, s, sp.ID, StateDone)
			b, err := os.ReadFile(s.resultPath(sp.ID))
			if err != nil {
				t.Fatal(err)
			}
			out[sp.ID] = b
		}
		return out
	}
	want, got := run(1), run(4)
	for _, sp := range specs {
		if !bytes.Equal(got[sp.ID], want[sp.ID]) {
			t.Errorf("%s: result on four lessees differs from one lessee's (%d vs %d bytes)",
				sp.ID, len(got[sp.ID]), len(want[sp.ID]))
		}
	}
}
